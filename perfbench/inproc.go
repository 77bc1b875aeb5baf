package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"jmake"
	"jmake/internal/cliopts"
	"jmake/internal/eval"
	"jmake/internal/vclock"
)

const (
	// setupReps is how many times a run sets up before reporting the
	// median set-up time; the last set-up's workspace is the one measured.
	setupReps = 5
	// minPasses is the fewest measured passes a run makes, however short
	// -seconds is: the run's values are medians over passes.
	minPasses = 3
)

// pass is one measured pass over a workload's commits.
type pass struct {
	ids     []string
	reports []*jmake.Report
	latMS   []float64 // per op, in commit order
	wall    time.Duration
	use     usageDelta
	failed  int
	// invalidated and structural are the follower's exact per-step counts
	// (follow only).
	invalidated, structural int
}

func (p *pass) rate() float64 { return float64(len(p.ids)) / p.wall.Seconds() }

// setUp builds the workspace and opens the workload's entry point, which
// is everything before the first op can be issued.
func setUp(kind string, s seeds) (*cliopts.Built, error) {
	built, err := s.workspace().Build()
	if err != nil {
		return nil, fmt.Errorf("building workspace: %w", err)
	}
	if len(built.WindowIDs) < 2 {
		return nil, fmt.Errorf("window has %d commits; need at least 2", len(built.WindowIDs))
	}
	if kind == "follow" {
		_, err = jmake.NewFollower(built.Hist.Repo, built.WindowIDs[0], jmake.FollowOptions{})
	} else {
		_, err = built.SessionAt(built.WindowIDs[0])
	}
	return built, err
}

// windowPass checks every window commit in order on a Session that is
// fresh for the pass, so the result, token and config caches start empty.
// With a tracer it calls CheckCommitWith's public pieces itself and
// records a span around each.
func windowPass(built *cliopts.Built, tr *tracer) (*pass, *jmake.Session, error) {
	sess, err := built.SessionAt(built.WindowIDs[0])
	if err != nil {
		return nil, nil, err
	}
	ids := built.WindowIDs
	p := &pass{ids: ids, reports: make([]*jmake.Report, len(ids)), latMS: make([]float64, len(ids))}
	repo := built.Hist.Repo
	runtime.GC()
	u0 := readUsage()
	start := time.Now()
	for i, id := range ids {
		t := time.Now()
		var r *jmake.Report
		if tr == nil {
			r, err = jmake.CheckCommitWith(sess, repo, id, jmake.Options{})
		} else {
			r, err = tracedWindowCheck(tr, sess, repo, id)
		}
		p.latMS[i] = ms(time.Since(t))
		if err != nil {
			p.failed++
			continue
		}
		p.reports[i] = r
	}
	p.wall = time.Since(start)
	p.use.add(u0, readUsage())
	return p, sess, nil
}

// tracedWindowCheck is CheckCommitWith with a root span per op and child
// spans around CheckoutTree, FileDiffs and CheckPatch.
func tracedWindowCheck(tr *tracer, sess *jmake.Session, repo *jmake.Repo, id string) (*jmake.Report, error) {
	root := tr.open("window.op", -1, map[string]any{"commit": id})
	defer tr.close(root)
	sp := tr.open("vcs.CheckoutTree", root, nil)
	tree, err := repo.CheckoutTree(id)
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.open("vcs.FileDiffs", root, nil)
	fds, err := repo.FileDiffs(id)
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	kept := relevant(fds)
	sp = tr.open("core.CheckPatch", root, map[string]any{"files": len(kept)})
	defer tr.close(sp)
	return sess.Checker(tree, vclock.DefaultModel(uint64(len(id))), jmake.Options{}).CheckPatch(id, kept)
}

// relevant keeps the file diffs the checker looks at, as CheckCommitWith
// does.
func relevant(fds []jmake.FileDiff) []jmake.FileDiff {
	kept := fds[:0:0]
	for _, fd := range fds {
		if eval.RelevantPath(fd.NewPath) {
			kept = append(kept, fd)
		}
	}
	return kept
}

// followPass seeds one follower at the window base and steps it through
// every later window commit in order.
func followPass(built *cliopts.Built, tr *tracer) (*pass, *jmake.Follower, error) {
	f, err := jmake.NewFollower(built.Hist.Repo, built.WindowIDs[0], jmake.FollowOptions{})
	if err != nil {
		return nil, nil, err
	}
	ids := built.WindowIDs[1:]
	p := &pass{ids: ids, reports: make([]*jmake.Report, len(ids)), latMS: make([]float64, len(ids))}
	runtime.GC()
	u0 := readUsage()
	start := time.Now()
	for i, id := range ids {
		root := tr.open("follow.op", -1, map[string]any{"commit": id})
		sp := tr.open("incr.Follower.Step", root, nil)
		t := time.Now()
		res, err := f.Step(id)
		p.latMS[i] = ms(time.Since(t))
		tr.close(sp)
		tr.close(root)
		if err != nil || res.Report == nil {
			p.failed++
			continue
		}
		p.reports[i] = res.Report
		p.invalidated += res.InvalidatedTUs
		if res.Structural {
			p.structural++
		}
	}
	p.wall = time.Since(start)
	p.use.add(u0, readUsage())
	return p, f, nil
}

func runPass(kind string, built *cliopts.Built, tr *tracer) (*pass, *jmake.Session, error) {
	if kind == "follow" {
		p, f, err := followPass(built, tr)
		if err != nil {
			return nil, nil, err
		}
		return p, f.Session(), nil
	}
	return windowPass(built, tr)
}

// runInProcess measures the window or follow workload: repeated set-ups,
// then passes until -seconds have gone, each pass with fresh cache state.
func runInProcess(cfg config) (*outcome, error) {
	s := deriveSeeds(cfg.seed)
	o := newOutcome()
	var setups []float64
	var built *cliopts.Built
	for i := 0; i < setupReps; i++ {
		// Drop the previous set-up's workspace first, so that no two are
		// ever live at once.
		built = nil
		runtime.GC()
		t := time.Now()
		b, err := setUp(cfg.workload, s)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		built = b
	}
	o.set("setup_s", median(setups), setups...)
	o.samples["setup_s"] = len(setups)
	setupPeak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.notes["peak_rss_setup_mb"] = setupPeak

	var passes []*pass
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for len(passes) < minPasses || time.Now().Before(deadline) {
		if err := cfg.ctx.Err(); err != nil {
			return nil, err
		}
		p, _, err := runPass(cfg.workload, built, nil)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(passes), err)
		}
		if err := o.ver.observeReports(p.ids, p.reports); err != nil {
			return nil, err
		}
		p.reports = nil
		passes = append(passes, p)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	// VmHWM covers the whole run; name the phase that set it.
	o.notes["peak_rss_phase"] = "passes"
	if rss == setupPeak {
		o.notes["peak_rss_phase"] = "set-up"
	}

	var rates, p50s, lat []float64
	var use usageDelta
	ops := 0
	for _, p := range passes {
		rates = append(rates, p.rate())
		p50s = append(p50s, median(p.latMS))
		lat = append(lat, p.latMS...)
		use.alloc += p.use.alloc
		ops += len(p.ids)
		o.failed += p.failed
	}
	o.attempted = ops
	o.set("ops_per_s", median(rates), rates...)
	o.set("latency_p50_ms", median(lat), p50s...)
	p99ms, err := p99(lat)
	if err != nil {
		return nil, fmt.Errorf("latency_p99_ms: %w", err)
	}
	o.set("latency_p99_ms", p99ms)
	o.samples["latency"] = len(lat)
	o.samples["passes"] = len(passes)
	o.notes["latency_tail"] = tailOf(lat)
	o.set("alloc_mb_per_op", float64(use.alloc)/float64(ops)/1e6, perPassAlloc(passes)...)
	o.set("peak_rss_mb", rss)

	maxRPS, rungs := replayMaxRPS(s, lat)
	o.set("max_rps", maxRPS)
	o.notes["max_rps_rungs"] = rungs
	o.notes["max_rps_method"] = "derived, not measured: the ladder applied to a single-server FIFO queue replay of the run's measured per-op times"

	ref, err := references(built)
	if err != nil {
		return nil, err
	}
	o.ver.settle(ref.bytes)
	o.failed += o.ver.mismatched
	o.notes["op_digest"] = opDigest(s, built.WindowIDs)
	return o, nil
}

func perPassAlloc(passes []*pass) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = float64(p.use.alloc) / float64(len(p.ids)) / 1e6
	}
	return out
}

// replayMaxRPS derives max_rps from the run's measured per-op times (ms,
// in the order they ran): each ladder rate offers seeded Poisson arrivals
// to a single server that handles them in order with those times, which is
// what an open loop in front of either path would see if its ops cost what
// they cost in the closed loop (the follower is single-goroutine by
// contract; the one-shot path checks one commit at a time). The replay is
// deterministic, so no rung is measured twice. It carries no signal of its
// own beyond the per-op times behind ops_per_s and the latencies: it
// weighs their tail against the latency limit.
func replayMaxRPS(s seeds, serviceMS []float64) (float64, []rung) {
	return searchMaxRPS(func(rate float64) rung {
		rng := rand.New(rand.NewSource(s.Traffic ^ int64(math.Float64bits(rate))))
		return judge(rate, replayQueue(schedule(rng, rate, len(serviceMS), 1), serviceMS))
	})
}
