package service

import (
	"context"
	"testing"
	"time"
)

func TestAdmissionUnboundedAdmitsEverything(t *testing.T) {
	a := newAdmission(0, 0, nil)
	for i := 0; i < 100; i++ {
		release, err := a.acquire(context.Background(), nil)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		defer release()
	}
	if s := a.stats(); s.Admitted != 100 || s.MaxInFlight != 0 {
		t.Fatalf("stats = %+v, want 100 admitted, unbounded", s)
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	a := newAdmission(1, -1, nil) // one slot, no waiting room
	release, err := a.acquire(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.acquire(context.Background(), nil)
	oe, ok := IsOverload(err)
	if !ok {
		t.Fatalf("second acquire = %v, want OverloadError", err)
	}
	if oe.Reason != "queue_full" {
		t.Fatalf("reason = %q, want queue_full", oe.Reason)
	}
	if oe.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s floor", oe.RetryAfter)
	}
	if oe.RetryAfter != oe.RetryAfter.Truncate(time.Second) {
		t.Fatalf("RetryAfter = %v, want whole seconds", oe.RetryAfter)
	}
	release()
	a.done(10 * time.Millisecond)
	// With the slot free again, admission resumes.
	release2, err := a.acquire(context.Background(), nil)
	if err != nil {
		t.Fatalf("post-release acquire: %v", err)
	}
	release2()
	a.done(10 * time.Millisecond)
	if s := a.stats(); s.ShedQueueFull != 1 || s.Admitted != 2 {
		t.Fatalf("stats = %+v, want 1 shed / 2 admitted", s)
	}
}

func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	a := newAdmission(1, 2, nil)
	release, err := a.acquire(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan func(), 1)
	go func() {
		r, err := a.acquire(context.Background(), nil)
		if err != nil {
			panic(err)
		}
		admitted <- r
	}()
	// The waiter must be queued, not admitted, while the slot is held.
	deadline := time.Now().Add(time.Second)
	for a.stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-admitted:
		t.Fatal("waiter admitted while the slot was held")
	default:
	}
	release()
	a.done(5 * time.Millisecond)
	select {
	case r := <-admitted:
		r()
		a.done(5 * time.Millisecond)
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not admitted after release")
	}
	if s := a.stats(); s.QueuedMax != 1 || s.Queued != 0 {
		t.Fatalf("stats = %+v, want queuedMax 1, queued drained", s)
	}
}

func TestAdmissionQueueHonorsContext(t *testing.T) {
	a := newAdmission(1, 2, nil)
	release, err := a.acquire(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.acquire(ctx, nil); err != context.DeadlineExceeded {
		t.Fatalf("queued acquire with expired ctx = %v, want DeadlineExceeded", err)
	}
	if s := a.stats(); s.Queued != 0 {
		t.Fatalf("queued = %d after ctx abort, want 0", s.Queued)
	}
}

func TestAdmissionTenantQuota(t *testing.T) {
	a := newAdmission(8, 8, nil)
	tenant := &Tenant{Name: "acme", maxInFlight: 2}
	r1, err := a.acquire(context.Background(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.acquire(context.Background(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.acquire(context.Background(), tenant)
	oe, ok := IsOverload(err)
	if !ok || oe.Reason != "tenant_quota" {
		t.Fatalf("third acquire = %v, want tenant_quota OverloadError", err)
	}
	// The global gate was untouched by the tenant shed: another tenant admits.
	other, err := a.acquire(context.Background(), &Tenant{Name: "other", maxInFlight: 1})
	if err != nil {
		t.Fatalf("other tenant blocked by acme's quota: %v", err)
	}
	other()
	r1()
	if tenant.InFlight() != 1 {
		t.Fatalf("inflight = %d after release, want 1", tenant.InFlight())
	}
	r3, err := a.acquire(context.Background(), tenant)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	r3()
	r2()
	if s := a.stats(); s.ShedTenant != 1 {
		t.Fatalf("stats = %+v, want 1 tenant shed", s)
	}
}

func TestRetryAfterScalesWithLoad(t *testing.T) {
	a := newAdmission(1, -1, nil)
	// Teach the EWMA a 5s service time: the next shed should price the wait
	// accordingly instead of the 1s floor.
	a.done(5 * time.Second)
	release, err := a.acquire(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	_, err = a.acquire(context.Background(), nil)
	oe, ok := IsOverload(err)
	if !ok {
		t.Fatalf("want OverloadError, got %v", err)
	}
	if oe.RetryAfter < 5*time.Second {
		t.Fatalf("RetryAfter = %v, want >= the 5s average service time", oe.RetryAfter)
	}
}

// TestAdmissionQueueDepthZeroWaits pins the library contract of
// Config.QueueDepth 0: with every mining slot held, extra queries wait for a
// slot rather than being shed, however many arrive, and a release admits
// exactly one of them.
func TestAdmissionQueueDepthZeroWaits(t *testing.T) {
	const slots, waiters = 2, 10 // more waiters than 4×slots
	a := New(Config{MaxConcurrent: slots}).adm
	var held []func()
	for i := 0; i < slots; i++ {
		release, err := a.acquire(context.Background(), nil)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		held = append(held, release)
	}
	admitted := make(chan func(), waiters)
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			r, err := a.acquire(context.Background(), nil)
			if err != nil {
				errs <- err
				return
			}
			admitted <- r
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s := a.stats(); s.Queued+int(s.ShedQueueFull) < waiters; s = a.stats() {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want all %d waiters queued", s, waiters)
		}
		time.Sleep(time.Millisecond)
	}
	if s := a.stats(); s.ShedQueueFull != 0 || s.Queued != waiters || s.Admitted != slots {
		t.Fatalf("stats = %+v, want %d queued, none shed, %d admitted", s, waiters, slots)
	}
	select {
	case err := <-errs:
		t.Fatalf("waiter failed: %v", err)
	case <-admitted:
		t.Fatal("waiter admitted while every slot was held")
	default:
	}

	held[0]()
	select {
	case r := <-admitted:
		held[0] = r
	case <-time.After(5 * time.Second):
		t.Fatal("no waiter admitted after a release")
	}
	if s := a.stats(); s.Queued != waiters-1 || s.Admitted != slots+1 {
		t.Fatalf("stats = %+v, want %d queued, %d admitted", s, waiters-1, slots+1)
	}

	// Drain: every release admits the next waiter until none is left.
	for i := 0; i < waiters-1; i++ {
		held[0]()
		held[0] = <-admitted
	}
	for _, r := range held {
		r()
	}
}
