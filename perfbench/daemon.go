package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running seqmined process.
type daemon struct {
	cmd    *exec.Cmd
	api    string // host:port of the API listener
	debug  string // host:port of the pprof listener
	exited chan struct{}
	log    *os.File
}

// startDaemon execs seqmined with default flags except -result-cache 0 (the
// closed loop repeats identical queries, which would otherwise measure a map
// lookup) and -debug-addr (for the MemStats scrape), loading the datasets
// from their files. It returns once /healthz answers, with the time from exec
// until then.
func startDaemon(bin string, datasets []dataFiles, logPath string) (*daemon, time.Duration, error) {
	api, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	debug, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", api, "-debug-addr", debug, "-result-cache", "0"}
	for _, files := range datasets {
		args = append(args, "-load", files.Name+"="+files.Sequences+","+files.Hierarchy)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The kernel kills the daemon if this process dies without stopping it,
	// for instance when it is itself killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, api: api, debug: debug, exited: make(chan struct{}), log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status is reported through the log
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get("http://" + api + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("seqmined exited before answering /healthz (log: %s)", logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("seqmined did not answer /healthz within 60s (log: %s)", logPath)
		}
	}
}

// stop terminates the daemon gracefully (SIGTERM), killing it if it has not
// exited after ten seconds, and waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// edge is everything scraped from outside the daemon at one window edge.
type edge struct {
	cpuTicks    int64 // utime+stime from /proc/<pid>/stat
	totalAlloc  uint64
	stageSum    map[string]float64 // seqmine_query_stage_seconds_sum by stage
	stageCount  map[string]float64
	cacheHits   uint64
	cacheMisses uint64
}

// stages are the serving stages of seqmine_query_stage_seconds.
var stages = []string{"queue", "compile", "mine"}

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat times; it is
// 100 on every Linux ABI.
const clockTicksPerSecond = 100

// scrape reads one window edge. Any failed request or missing series is an
// error: a zero read in place of a missing value would pass silently.
func (d *daemon) scrape(c *http.Client) (edge, error) {
	e := edge{stageSum: map[string]float64{}, stageCount: map[string]float64{}}
	var err error
	if e.cpuTicks, err = procCPUTicks(d.cmd.Process.Pid); err != nil {
		return e, err
	}
	heap, err := get(c, "http://"+d.debug+"/debug/pprof/heap?debug=1")
	if err != nil {
		return e, err
	}
	if e.totalAlloc, err = memStat(heap, "TotalAlloc"); err != nil {
		return e, err
	}
	prom, err := get(c, "http://"+d.api+"/metrics?format=prometheus")
	if err != nil {
		return e, err
	}
	series := parseExposition(prom)
	for _, st := range stages {
		for suffix, dst := range map[string]map[string]float64{"_sum": e.stageSum, "_count": e.stageCount} {
			name := fmt.Sprintf("seqmine_query_stage_seconds%s{stage=%q}", suffix, st)
			v, ok := series[name]
			if !ok {
				return e, fmt.Errorf("/metrics?format=prometheus has no series %s", name)
			}
			dst[st] = v
		}
	}
	body, err := get(c, "http://"+d.api+"/metrics")
	if err != nil {
		return e, err
	}
	var snap struct {
		Cache *struct {
			Hits   *uint64 `json:"hits"`
			Misses *uint64 `json:"misses"`
		} `json:"compiled_pattern_cache"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return e, fmt.Errorf("decoding /metrics: %w", err)
	}
	if snap.Cache == nil || snap.Cache.Hits == nil || snap.Cache.Misses == nil {
		return e, fmt.Errorf("/metrics has no compiled_pattern_cache hits/misses")
	}
	e.cacheHits, e.cacheMisses = *snap.Cache.Hits, *snap.Cache.Misses
	return e, nil
}

// peakRSSMB reads VmHWM, the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM in %s: %w", path, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM line", path)
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// procCPUTicks returns utime+stime of pid in clock ticks.
func procCPUTicks(pid int) (int64, error) {
	path := fmt.Sprintf("/proc/%d/stat", pid)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after it start
	// at the last ')'. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed %s", path)
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("malformed %s", path)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed utime/stime in %s", path)
	}
	return utime + stime, nil
}

// memStat reads one "# Name = value" runtime.MemStats line of a debug=1
// heap profile.
func memStat(profile []byte, name string) (uint64, error) {
	prefix := "# " + name + " = "
	sc := bufio.NewScanner(bytes.NewReader(profile))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			return strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("heap profile has no %q line", strings.TrimSpace(prefix))
}

// parseExposition maps each sample line of a Prometheus text exposition,
// keyed by its series name with labels as written, to its value.
func parseExposition(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}
