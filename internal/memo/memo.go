// Package memo is the one bounded concurrent memo of the module: a
// panic-safe singleflight group that the engine's compile, decomposition
// and formula caches and the tw-mso transition tables all share.
package memo

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/fault"
)

// Group is a bounded singleflight memo: the first caller for a key
// computes the value while every later caller waits on the same flight
// and shares its result. Successful flights stay cached; failed ones are
// unpinned, so a later request retries instead of replaying a stale
// error forever.
//
// Keys are client-controlled (formulas, graph fingerprints, bag
// configurations), so the group holds at most limit entries: on overflow
// an arbitrary entry is evicted. Waiters already holding its flight keep
// their pointer; later requests simply recompute.
type Group[K comparable, V any] struct {
	// owner (the package) and phase (the cached work) name the group in
	// the errors it makes itself: a panicked flight and a waiter
	// cancelled while retrying.
	owner, phase string
	limit        int

	mu      sync.RWMutex
	flights map[K]*flight[V]
}

// flight is one computation: started by the first requester, awaited by
// everyone else via the done channel.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns an empty group holding at most limit entries; owner and
// phase name it in the group's own errors.
func New[K comparable, V any](owner, phase string, limit int) *Group[K, V] {
	return &Group[K, V]{owner: owner, phase: phase, limit: limit, flights: map[K]*flight[V]{}}
}

// Do returns key's value, running compute in the calling goroutine when
// no flight for key exists; hit reports that another caller's flight
// served the call. compute runs under the context of the caller that won
// the flight, so a waiter that inherits a *cancelled* flight retries
// with its own context instead of failing for a stranger's disconnect —
// unless it is itself cancelled.
func (g *Group[K, V]) Do(ctx context.Context, key K, compute func() (V, error)) (v V, hit bool, err error) {
	for {
		// Hits and waits take only the read lock, so a warm lookup
		// allocates nothing; the write lock is for claiming the key.
		g.mu.RLock()
		f := g.flights[key]
		g.mu.RUnlock()
		if f == nil {
			g.mu.Lock()
			if f = g.flights[key]; f == nil {
				break // claim it, still holding the lock
			}
			g.mu.Unlock()
		}
		<-f.done
		if f.err == nil {
			return f.val, true, nil
		}
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
		// The text reaches HTTP 500 bodies; keep it stable.
		f.err = fmt.Errorf("%s: %s flight panicked", g.owner, g.phase)
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
func (g *Group[K, V]) unpin(key K, f *flight[V]) {
	g.mu.Lock()
	if g.flights[key] == f {
		delete(g.flights, key)
	}
	g.mu.Unlock()
}

// Len is the number of cached (and in-flight) entries.
func (g *Group[K, V]) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.flights)
}

// Purge drops every entry; in-flight computations finish for their own
// waiters but are no longer found by new requests.
func (g *Group[K, V]) Purge() {
	g.mu.Lock()
	g.flights = map[K]*flight[V]{}
	g.mu.Unlock()
}
