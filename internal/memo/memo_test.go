package memo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jmake/internal/metrics"
)

// 32 goroutines asking for the same N keys elect one computer per key:
// misses equal distinct keys and every other lookup is a hit.
func TestConcurrentElectionMissesEqualDistinctKeys(t *testing.T) {
	reg := metrics.NewRegistry()
	m := New[string, int](reg, "test")
	const goroutines, keys = 32, 50
	var computed [keys]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := (i + g) % keys // vary arrival order across goroutines
				v, _, err := m.Do(fmt.Sprint(k), func() (int, error) {
					computed[k].Add(1)
					time.Sleep(time.Millisecond) // widen the election window
					return k * k, nil
				})
				if err != nil || v != k*k {
					t.Errorf("Do(%d) = %d, %v; want %d", k, v, err, k*k)
				}
			}
		}(g)
	}
	wg.Wait()
	for k := range computed {
		if n := computed[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", k, n)
		}
	}
	hits, misses := m.Stats()
	if misses != keys || hits != goroutines*keys-keys {
		t.Fatalf("stats = %d hits / %d misses, want %d / %d", hits, misses, goroutines*keys-keys, keys)
	}
	if got := reg.Counter("test_misses").Value(); got != keys {
		t.Fatalf("registry test_misses = %d, want %d", got, keys)
	}
	if m.Len() != keys {
		t.Fatalf("Len() = %d, want %d", m.Len(), keys)
	}
}

// A failed computation is not cached: every observer of the error counts
// a miss (the computer and any waiter), and the next Do recomputes.
func TestFailureNotCachedAndCountsMissPerObserver(t *testing.T) {
	m := New[string, int](metrics.NewRegistry(), "test")
	boom := errors.New("boom")

	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, errs[0] = m.Do("k", func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
	}()
	<-started
	for i := 1; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = m.Do("k", func() (int, error) { return 0, boom })
		}(i)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("observer %d: err = %v, want boom", i, err)
		}
	}
	if hits, misses := m.Stats(); hits != 0 || misses != uint64(len(errs)) {
		t.Fatalf("stats = %d hits / %d misses, want 0 / %d", hits, misses, len(errs))
	}
	if m.Len() != 0 {
		t.Fatalf("Len() = %d after failure, want 0", m.Len())
	}

	v, hit, err := m.Do("k", func() (int, error) { return 7, nil })
	if v != 7 || hit || err != nil {
		t.Fatalf("retry after failure = %d, %v, %v; want 7, false, nil", v, hit, err)
	}
}

// A panicking computation re-raises in the computer and leaves no slot
// behind: the next Do recomputes instead of serving a zero value.
func TestPanicReraisesAndNextDoRecomputes(t *testing.T) {
	m := New[string, *int](metrics.NewRegistry(), "test")
	func() {
		defer func() {
			if r := recover(); r != "kaboom" {
				t.Fatalf("recovered %v, want kaboom", r)
			}
		}()
		m.Do("k", func() (*int, error) { panic("kaboom") })
		t.Fatal("Do returned after a panicking computation")
	}()
	if m.Len() != 0 {
		t.Fatalf("Len() = %d after panic, want 0", m.Len())
	}
	seven := 7
	v, hit, err := m.Do("k", func() (*int, error) { return &seven, nil })
	if v == nil || *v != 7 || hit || err != nil {
		t.Fatalf("Do after panic = %v, %v, %v; want recomputed 7", v, hit, err)
	}
}

// Waiters of a panicking computer re-elect rather than observe the
// half-built slot.
func TestPanicWaitersReelect(t *testing.T) {
	m := New[string, int](metrics.NewRegistry(), "test")
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }()
		m.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("kaboom")
		})
	}()
	<-started
	got := make(chan int)
	go func() {
		v, _, _ := m.Do("k", func() (int, error) { return 42, nil })
		got <- v
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block on the slot
	close(release)
	<-done
	if v := <-got; v != 42 {
		t.Fatalf("waiter of a panicked computation got %d, want recomputed 42", v)
	}
}

// Forget drops exactly the matching entries and reports how many.
func TestForgetReturnsDropped(t *testing.T) {
	type key struct {
		arch string
		n    int
	}
	m := New[key, int](metrics.NewRegistry(), "test")
	for _, a := range []string{"x86", "arm", "mips"} {
		for n := 0; n < 3; n++ {
			m.Do(key{a, n}, func() (int, error) { return n, nil })
		}
	}
	if got := m.Forget(func(k key) bool { return k.arch == "arm" }); got != 3 {
		t.Fatalf("Forget(arm) = %d, want 3", got)
	}
	if got := m.Forget(func(k key) bool { return k.arch == "arm" }); got != 0 {
		t.Fatalf("second Forget(arm) = %d, want 0", got)
	}
	if m.Len() != 6 {
		t.Fatalf("Len() = %d, want 6", m.Len())
	}
	if _, hit, _ := m.Do(key{"arm", 0}, func() (int, error) { return 0, nil }); hit {
		t.Fatal("forgotten key served from cache")
	}
	if got := m.Forget(All); got != 7 {
		t.Fatalf("Forget(All) = %d, want 7", got)
	}
	if m.Len() != 0 {
		t.Fatalf("Len() = %d after Forget(All), want 0", m.Len())
	}
}
