package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/fault"
)

// flightGroup is the singleflight both engine caches share: the first
// caller for a key computes the value while every later caller waits on
// the same flight and shares its result. Successful flights stay cached;
// failed ones are unpinned, so a later request retries instead of
// replaying a stale error forever.
//
// Keys are client-controlled (formulas, graph fingerprints), so the group
// holds at most limit entries: on overflow an arbitrary entry is evicted.
// Waiters already holding its flight keep their pointer; later requests
// simply recompute.
type flightGroup[K comparable, V any] struct {
	// phase names the cached work in the errors the group makes itself:
	// a panicked flight and a waiter cancelled while retrying.
	phase string
	limit int

	mu      sync.Mutex
	flights map[K]*flight[V]
}

// flight is one computation: started by the first requester, awaited by
// everyone else via the done channel.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newFlightGroup[K comparable, V any](phase string, limit int) *flightGroup[K, V] {
	return &flightGroup[K, V]{phase: phase, limit: limit, flights: map[K]*flight[V]{}}
}

// do returns key's value, running compute in the calling goroutine when
// no flight for key exists; hit reports that another caller's flight
// served the call. compute runs under the context of the caller that won
// the flight, so a waiter that inherits a *cancelled* flight retries
// with its own context instead of failing for a stranger's disconnect —
// unless it is itself cancelled.
func (g *flightGroup[K, V]) do(ctx context.Context, key K, compute func() (V, error)) (v V, hit bool, err error) {
	for {
		g.mu.Lock()
		f, ok := g.flights[key]
		if !ok {
			break
		}
		g.mu.Unlock()
		<-f.done
		if _, cancelled := fault.Cancelled(f.err); !cancelled {
			return f.val, true, f.err
		}
		// The computing request went away mid-flight. Its failure was
		// unpinned before done closed, so looping re-claims the key.
		if err := ctx.Err(); err != nil {
			return v, true, &fault.CancelledError{Phase: g.phase, Cause: err}
		}
	}
	if len(g.flights) >= g.limit {
		for k := range g.flights {
			delete(g.flights, k)
			break
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	// A panic unwinding through compute (injected chaos, or a bug) must
	// not strand waiters on a never-closed channel: unpin the flight and
	// release them with an error, then let the panic keep unwinding to
	// the recovery above us.
	settled := false
	defer func() {
		if settled {
			return
		}
		f.err = fmt.Errorf("engine: %s flight panicked", g.phase)
		g.unpin(key, f)
		close(f.done)
	}()
	f.val, f.err = compute()
	settled = true
	if f.err != nil {
		// Unpin before done closes, so a retrying waiter finds the slot
		// free instead of re-observing the dead flight.
		g.unpin(key, f)
	}
	close(f.done)
	return f.val, false, f.err
}

// unpin drops key's entry if it still belongs to f: an evicted flight's
// key may already carry a newer flight that must stay cached.
func (g *flightGroup[K, V]) unpin(key K, f *flight[V]) {
	g.mu.Lock()
	if g.flights[key] == f {
		delete(g.flights, key)
	}
	g.mu.Unlock()
}

// size is the number of cached (and in-flight) entries.
func (g *flightGroup[K, V]) size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}

// purge drops every entry; in-flight computations finish for their own
// waiters but are no longer found by new requests.
func (g *flightGroup[K, V]) purge() {
	g.mu.Lock()
	g.flights = map[K]*flight[V]{}
	g.mu.Unlock()
}
