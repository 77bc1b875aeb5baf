// Package memo is the pipeline's one "compute once per key" primitive.
// Every shared cache whose values are pure functions of their key (the
// token cache, the Kconfig parse and valuation caches, the warm-session
// caches, the daemon's audit report) is a Memo, so they all share one
// failure rule, one panic rule and one way of counting.
//
// Rules:
//
//   - Election. Concurrent first requests for a key elect one computer;
//     the rest wait for it. The computer counts a miss and every waiter
//     counts a hit, so on the success path misses equal the number of
//     distinct keys at any worker count — cache counters stay
//     reproducible across -workers settings.
//   - Failure. A computation that returns an error is dropped, never
//     cached: the next request re-elects. Every caller that observes the
//     error counts a miss.
//   - Panic. A panicking computation drops its slot and re-panics in the
//     computer; its waiters re-elect. A recovered panic therefore never
//     leaves a zero value behind to be served as an answer.
//   - Locking. Computation runs outside every lock. Entries live in a
//     fixed number of shards, each with its own mutex held only for the
//     map lookup, so workers computing different keys never contend.
package memo

import (
	"hash/maphash"
	"sync"

	"jmake/internal/metrics"
)

// shards is the shard count; a power of two so the shard index is a mask.
// 16 comfortably exceeds the realistic overlap of simultaneous lookups.
const shards = 16

// Memo memoizes compute results per key. Hit and miss counters are the
// "<name>_hits" / "<name>_misses" series of the registry it was made in.
type Memo[K comparable, V any] struct {
	seed   maphash.Seed
	shards [shards]shard[K, V]
	hits   *metrics.Counter
	misses *metrics.Counter
}

type shard[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V]
}

// entry is one key's election slot. wg is released when the computer is
// done; finished is false when it panicked instead of returning.
type entry[V any] struct {
	wg       sync.WaitGroup
	val      V
	err      error
	finished bool
}

// New returns an empty memo counting into reg.
func New[K comparable, V any](reg *metrics.Registry, name string) *Memo[K, V] {
	m := &Memo[K, V]{
		seed:   maphash.MakeSeed(),
		hits:   reg.Counter(name + "_hits"),
		misses: reg.Counter(name + "_misses"),
	}
	for i := range m.shards {
		m.shards[i].entries = make(map[K]*entry[V])
	}
	return m
}

func (m *Memo[K, V]) shard(k K) *shard[K, V] {
	return &m.shards[maphash.Comparable(m.seed, k)&(shards-1)]
}

// Do returns the value for k, calling compute at most once per key at a
// time. hit reports whether the value came from another caller's
// computation. On failure Do returns compute's value and error to the
// computer and to every waiter, and caches nothing.
func (m *Memo[K, V]) Do(k K, compute func() (V, error)) (v V, hit bool, err error) {
	sh := m.shard(k)
	for {
		sh.mu.Lock()
		e, found := sh.entries[k]
		if !found {
			e = &entry[V]{}
			e.wg.Add(1)
			sh.entries[k] = e
		}
		sh.mu.Unlock()
		if !found {
			m.misses.Inc()
			m.run(sh, k, e, compute)
			return e.val, false, e.err
		}
		e.wg.Wait()
		if !e.finished {
			continue // the computer panicked: re-elect
		}
		if e.err != nil {
			m.misses.Inc()
			return e.val, false, e.err
		}
		m.hits.Inc()
		return e.val, true, nil
	}
}

// run computes e as the elected computer. A failed or panicking
// computation removes its own slot (a Forget may already have) before
// releasing the waiters.
func (m *Memo[K, V]) run(sh *shard[K, V], k K, e *entry[V], compute func() (V, error)) {
	defer func() {
		if !e.finished || e.err != nil {
			sh.mu.Lock()
			if sh.entries[k] == e {
				delete(sh.entries, k)
			}
			sh.mu.Unlock()
		}
		e.wg.Done()
	}()
	e.val, e.err = compute()
	e.finished = true
}

// Forget drops every entry whose key satisfies drop and returns how many
// it dropped. A computation in flight for a dropped key still answers its
// own waiters; later requests recompute.
func (m *Memo[K, V]) Forget(drop func(K) bool) int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for k := range sh.entries {
			if drop(k) {
				delete(sh.entries, k)
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// All is the Forget predicate that drops every entry.
func All[K any](K) bool { return true }

// Len returns the number of entries, counting computations in flight.
func (m *Memo[K, V]) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns the lookup counters (a view over the registry series).
func (m *Memo[K, V]) Stats() (hits, misses uint64) {
	return m.hits.Value(), m.misses.Value()
}
