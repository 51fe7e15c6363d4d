package engine

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
func startFlight(t *testing.T, g *flightGroup[string, int], key string, release chan func() (int, error)) (done chan struct{}) {
	t.Helper()
	done = make(chan struct{})
	claimed := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { _ = recover() }() // the panic case re-raises here
		_, _, _ = g.do(context.Background(), key, func() (int, error) {
			close(claimed)
			return (<-release)()
		})
	}()
	<-claimed
	return done
}

// A panicking compute must release its waiters with an error and unpin
// the key, so the next request computes afresh.
func TestFlightGroupPanicReleasesWaiters(t *testing.T) {
	g := newFlightGroup[string, int]("compile", 8)
	release := make(chan func() (int, error))
	done := startFlight(t, g, "k", release)
	// A waiter that joined gets the panic error; one scheduled after the
	// unpin runs its own (failing, so unpinned) compute. Only a stranded
	// waiter is a bug.
	errLate := errors.New("late waiter")
	waiter := make(chan error, 1)
	go func() {
		_, _, err := g.do(context.Background(), "k", func() (int, error) { return 0, errLate })
		waiter <- err
	}()
	release <- func() (int, error) { panic("boom") }
	<-done
	if err := <-waiter; !errors.Is(err, errLate) && (err == nil || !strings.Contains(err.Error(), "compile flight panicked")) {
		t.Fatalf("waiter error = %v", err)
	}
	if v, hit, err := g.do(context.Background(), "k", func() (int, error) { return 7, nil }); v != 7 || hit || err != nil {
		t.Fatalf("after panic: v=%d hit=%v err=%v, want a fresh computation", v, hit, err)
	}
}

// A waiter that inherits a flight cancelled by its owner retries under
// its own context instead of failing for the stranger's cancellation; a
// waiter that is itself cancelled reports its own cancellation.
func TestFlightGroupCancelledFlightRetries(t *testing.T) {
	cancelled := &fault.CancelledError{Phase: "decompose", Cause: context.Canceled}
	t.Run("live-waiter-recomputes", func(t *testing.T) {
		g := newFlightGroup[string, int]("decompose", 8)
		release := make(chan func() (int, error))
		done := startFlight(t, g, "k", release)
		got := make(chan int, 1)
		go func() {
			v, _, err := g.do(context.Background(), "k", func() (int, error) { return 42, nil })
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
		g := newFlightGroup[string, int]("decompose", 8)
		f := &flight[int]{done: make(chan struct{}), err: cancelled}
		close(f.done)
		g.flights["k"] = f
		ctx, cancel := context.WithDeadline(context.Background(), time.Now())
		defer cancel()
		_, hit, err := g.do(ctx, "k", func() (int, error) { return 42, nil })
		if ce, ok := fault.Cancelled(err); !ok || ce.Phase != "decompose" || !errors.Is(err, context.DeadlineExceeded) || !hit {
			t.Fatalf("cancelled waiter: hit=%v err=%v, want its own decompose cancellation", hit, err)
		}
	})
}
