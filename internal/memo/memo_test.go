package memo

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// startFlight claims key on g with a compute that blocks until release
// yields its result, and returns once the flight is pinned; done closes
// when the claiming call returns.
func startFlight(t *testing.T, g *Group[string, int], key string, release chan func() (int, error)) (done chan struct{}) {
	t.Helper()
	done = make(chan struct{})
	claimed := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { _ = recover() }() // the panic case re-raises here
		_, _, _ = g.Do(context.Background(), key, func() (int, error) {
			close(claimed)
			return (<-release)()
		})
	}()
	<-claimed
	return done
}

// A panicking compute must release its waiters with an error and unpin
// the key, so the next request computes afresh.
func TestGroupPanicReleasesWaiters(t *testing.T) {
	g := New[string, int]("engine", "compile", 8)
	release := make(chan func() (int, error))
	done := startFlight(t, g, "k", release)
	// A waiter that joined gets the panic error; one scheduled after the
	// unpin runs its own (failing, so unpinned) compute. Only a stranded
	// waiter is a bug.
	errLate := errors.New("late waiter")
	waiter := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "k", func() (int, error) { return 0, errLate })
		waiter <- err
	}()
	release <- func() (int, error) { panic("boom") }
	<-done
	if err := <-waiter; !errors.Is(err, errLate) && (err == nil || !strings.Contains(err.Error(), "compile flight panicked")) {
		t.Fatalf("waiter error = %v", err)
	}
	if v, hit, err := g.Do(context.Background(), "k", func() (int, error) { return 7, nil }); v != 7 || hit || err != nil {
		t.Fatalf("after panic: v=%d hit=%v err=%v, want a fresh computation", v, hit, err)
	}
}

// A waiter that inherits a flight cancelled by its owner retries under
// its own context instead of failing for the stranger's cancellation; a
// waiter that is itself cancelled reports its own cancellation.
func TestGroupCancelledFlightRetries(t *testing.T) {
	cancelled := &fault.CancelledError{Phase: "decompose", Cause: context.Canceled}
	t.Run("live-waiter-recomputes", func(t *testing.T) {
		g := New[string, int]("engine", "decompose", 8)
		release := make(chan func() (int, error))
		done := startFlight(t, g, "k", release)
		got := make(chan int, 1)
		go func() {
			v, _, err := g.Do(context.Background(), "k", func() (int, error) { return 42, nil })
			if err != nil {
				t.Errorf("live waiter: %v", err)
			}
			got <- v
		}()
		release <- func() (int, error) { return 0, cancelled }
		<-done
		if v := <-got; v != 42 {
			t.Fatalf("live waiter got %d, want its own computation", v)
		}
	})
	t.Run("cancelled-waiter-gives-up", func(t *testing.T) {
		// A settled cancelled flight still pinned: the waiter must not
		// spin on it once its own context is done.
		g := New[string, int]("engine", "decompose", 8)
		f := &flight[int]{done: make(chan struct{}), err: cancelled}
		close(f.done)
		g.flights["k"] = f
		ctx, cancel := context.WithDeadline(context.Background(), time.Now())
		defer cancel()
		_, hit, err := g.Do(ctx, "k", func() (int, error) { return 42, nil })
		if ce, ok := fault.Cancelled(err); !ok || ce.Phase != "decompose" || !errors.Is(err, context.DeadlineExceeded) || !hit {
			t.Fatalf("cancelled waiter: hit=%v err=%v, want its own decompose cancellation", hit, err)
		}
	})
}

// Do's hit path: a caller finding a flight in progress waits for it
// instead of computing, a failed flight is recomputed by the next
// caller, and a hit on a completed flight allocates nothing.
func TestGroupDoHit(t *testing.T) {
	g := New[string, int]("engine", "compile", 8)
	ctx := context.Background()
	mustNotRun := func() (int, error) {
		t.Error("compute ran on a hit")
		return 0, nil
	}
	release := make(chan func() (int, error))
	done := startFlight(t, g, "k", release)
	type result struct {
		v   int
		hit bool
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		v, hit, err := g.Do(ctx, "k", mustNotRun)
		waiter <- result{v, hit, err}
	}()
	select {
	case r := <-waiter:
		t.Fatalf("waiter returned %+v before the flight settled", r)
	case <-time.After(10 * time.Millisecond):
	}
	release <- func() (int, error) { return 5, nil }
	<-done
	if r := <-waiter; r.v != 5 || !r.hit || r.err != nil {
		t.Fatalf("in-flight waiter: %+v, want the flight's 5 as a hit", r)
	}

	boom := errors.New("boom")
	done = startFlight(t, g, "failed", release)
	release <- func() (int, error) { return 0, boom }
	<-done
	if v, hit, err := g.Do(ctx, "failed", func() (int, error) { return 7, nil }); v != 7 || hit || err != nil {
		t.Fatalf("after a failed flight: v=%d hit=%v err=%v, want a fresh computation", v, hit, err)
	}
	if v, hit, err := g.Do(ctx, "failed", mustNotRun); v != 7 || !hit || err != nil {
		t.Fatalf("after completion: v=%d hit=%v err=%v, want 7 as a hit", v, hit, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _, _ = g.Do(ctx, "k", mustNotRun) }); allocs != 0 {
		t.Fatalf("Do hit allocates %.1f times, want 0", allocs)
	}
}
