package main

import (
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"jmake"
	"jmake/internal/cc"
	"jmake/internal/cliopts"
	"jmake/internal/core"
	"jmake/internal/fstree"
	"jmake/internal/incr"
	"jmake/internal/kbuild"
	"jmake/internal/textdiff"
	"jmake/internal/trace"
	"jmake/internal/vclock"
)

// runTraced is the traced run: the workload once untraced and once with
// spans, the span file written and validated, the layer replay on the same
// inputs, the program's public counters and the daemon probe. It prints
// per-layer metrics.
func runTraced(cfg config) (*outcome, error) {
	s := deriveSeeds(cfg.seed)
	o := newOutcome()
	built, err := s.workspace().Build()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	if err := tracedInProcess(cfg, built, tr, o); err != nil {
		return nil, err
	}
	if err := writeSpans(cfg, tr, o); err != nil {
		return nil, err
	}
	// The daemon layer is measured on the same inputs by a short service
	// probe, so every traced run reports every layer.
	if err := daemonProbe(cfg, s, built.WindowIDs, o); err != nil {
		return nil, err
	}
	ref, err := references(built)
	if err != nil {
		return nil, err
	}
	ids := built.WindowIDs
	if cfg.workload == "follow" {
		ids = ids[1:]
	}
	var mi, mo, cf float64
	for _, id := range ids {
		f := ref.facts[id]
		mi += float64(f.makeI)
		mo += float64(f.makeO)
		cf += float64(f.configs)
	}
	n := float64(len(ids))
	o.set("core.make_i_per_op", mi/n)
	o.set("core.make_o_per_op", mo/n)
	o.set("core.configs_per_op", cf/n)
	rec, err := recordBuilds(built, o.ver)
	if err != nil {
		return nil, err
	}
	if err := replayLayers(built, rec, o); err != nil {
		return nil, err
	}
	o.ver.settle(ref.bytes)
	o.failed += o.ver.mismatched
	return o, nil
}

// tracedInProcess runs one untraced and one traced pass of window or
// follow, and reads the traced pass's session counters.
func tracedInProcess(cfg config, built *cliopts.Built, tr *tracer, o *outcome) error {
	plain, _, err := runPass(cfg.workload, built, nil)
	if err != nil {
		return err
	}
	traced, sess, err := runPass(cfg.workload, built, tr)
	if err != nil {
		return err
	}
	for _, p := range []*pass{plain, traced} {
		if err := o.ver.observeReports(p.ids, p.reports); err != nil {
			return err
		}
		o.attempted += len(p.ids)
		o.failed += p.failed
	}
	o.set("trace.overhead_pct", (plain.rate()/traced.rate()-1)*100)
	o.notes["ops_per_s_untraced"] = plain.rate()
	o.notes["ops_per_s_traced"] = traced.rate()
	self := tr.selfTimes()
	ops := float64(len(traced.ids))
	o.set("go.cpu_ms_per_op", ms(plain.use.cpu)/ops)
	o.set("go.gc_cpu_fraction", ratio(plain.use.gcCPU, plain.use.allCP))
	if cfg.workload == "window" {
		o.set("core.check_patch_ms", self["core.CheckPatch"]/ops)
	}
	if cfg.workload == "follow" {
		o.set("incr.invalidated_tus_per_op", float64(traced.invalidated)/ops)
		o.set("incr.structural_ratio", float64(traced.structural)/ops)
	}
	o.set("core.config_hit_ratio", sess.ConfigCacheStats().HitRate())
	o.set("cpp.token_cache_hit_ratio", sess.TokenCacheStats().HitRate())
	st, _ := sess.ResultCacheStats() // zero stats when the cache is off
	o.set("ccache.make_i_hit_ratio", st.MakeI.HitRate())
	o.set("ccache.make_o_hit_ratio", st.MakeO.HitRate())
	return nil
}

// writeSpans writes the span file and validates it with trace-check.
func writeSpans(cfg config, tr *tracer, o *outcome) error {
	data, err := tr.chromeJSON()
	if err != nil {
		return err
	}
	file := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(file, data, 0o644); err != nil {
		return err
	}
	out, err := exec.Command(cfg.traceCheck, file).CombinedOutput()
	if err != nil {
		return fmt.Errorf("trace-check rejected %s: %v: %s", file, err, out)
	}
	o.notes["span_file"] = file
	o.notes["spans"] = len(tr.spans)
	o.notes["trace_check"] = strings.TrimSpace(string(out))
	return nil
}

// timer accumulates wall time and allocated bytes over measured calls.
type timer struct {
	n     int
	wall  time.Duration
	alloc uint64
}

// measure times fn and the bytes it allocates; the allocation reads
// happen outside the timed interval.
func (t *timer) measure(fn func()) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	fn()
	t.wall += time.Since(start)
	runtime.ReadMemStats(&b)
	t.alloc += b.TotalAlloc - a.TotalAlloc
	t.n++
}

func (t *timer) meanMS() float64 { return ratio(ms(t.wall), float64(t.n)) }
func (t *timer) meanUS() float64 { return t.meanMS() * 1000 }
func (t *timer) meanKB() float64 { return ratio(float64(t.alloc)/1e3, float64(t.n)) }

// compile is one compile a reference check ran: the TU, and the
// architecture and configuration it was compiled under.
type compile struct {
	path, arch string
	config     core.ConfigChoice
}

// archConfig is one configuration a reference check generated.
type archConfig struct {
	arch   string
	config core.ConfigChoice
}

// recorded is what the reference checks built, read from the program's
// own virtual-time span trees.
type recorded struct {
	compiles map[string][]compile // by commit
	configs  []archConfig         // distinct, in first-use order
}

// recordBuilds re-runs each commit's reference check with
// jmake.CheckCommitTraced on a fresh Session, verifies its report like
// any other output (traced and untraced reports are byte-identical), and
// reads from its span tree every configuration generated and every TU
// compiled, with the architecture and configuration in force.
func recordBuilds(built *cliopts.Built, ver *verifier) (*recorded, error) {
	rec := &recorded{compiles: make(map[string][]compile)}
	seen := make(map[archConfig]bool)
	for _, id := range built.WindowIDs {
		tree, err := built.Hist.Repo.CheckoutTree(id)
		if err != nil {
			return nil, err
		}
		sess, err := jmake.NewSession(tree)
		if err != nil {
			return nil, err
		}
		r, root, err := jmake.CheckCommitTraced(sess, built.Hist.Repo, id, jmake.Options{})
		if err != nil {
			return nil, fmt.Errorf("traced reference check of %s: %w", id, err)
		}
		if err := ver.observeReports([]string{id}, []*jmake.Report{r}); err != nil {
			return nil, err
		}
		current := make(map[string]core.ConfigChoice) // arch -> config in force
		var walk func(sp *jmake.TraceSpan)
		walk = func(sp *jmake.TraceSpan) {
			arch, _ := sp.Attr("arch")
			switch sp.Kind {
			case trace.KindConfig:
				name, _ := sp.Attr("config")
				choice, ok := parseConfigChoice(name)
				if !ok {
					break // a synthesized coverage configuration; off by default
				}
				current[arch] = choice
				if ac := (archConfig{arch, choice}); !seen[ac] {
					seen[ac] = true
					rec.configs = append(rec.configs, ac)
				}
			case trace.KindMakeO:
				path, _ := sp.Attr("path")
				if choice, ok := current[arch]; ok {
					rec.compiles[id] = append(rec.compiles[id], compile{path, arch, choice})
				}
			}
			for _, c := range sp.Children {
				walk(c)
			}
		}
		walk(root)
	}
	return rec, nil
}

// parseConfigChoice reads a config span's "config" attribute: the
// ConfigKind's name followed by the defconfig path, if any.
func parseConfigChoice(s string) (core.ConfigChoice, bool) {
	for _, k := range []core.ConfigKind{core.ConfigAllYes, core.ConfigDefconfig, core.ConfigAllMod} {
		if rest, ok := strings.CutPrefix(s, k.String()); ok {
			return core.ConfigChoice{Kind: k, Path: rest}, true
		}
	}
	return core.ConfigChoice{}, false
}

// replayLayers times each layer's public functions from outside, on the
// window's commits, and sets the per-layer metrics. kconfig, kbuild, cpp
// and cc are replayed under exactly the architectures and configurations
// the reference checks used. core.check_patch_ms and the incr counts come
// from the traced pass where that pass runs the layer; otherwise the
// replay measures them too.
func replayLayers(built *cliopts.Built, rec *recorded, o *outcome) error {
	repo := built.Hist.Repo
	ids := built.WindowIDs
	base, err := repo.CheckoutTree(ids[0])
	if err != nil {
		return err
	}
	meta, err := kbuild.LoadMeta(base)
	if err != nil {
		return err
	}
	arches := kbuild.DiscoverArches(base, meta)

	// kconfig: each configuration the reference checks generated, on a
	// fresh provider.
	var gen timer
	for _, ac := range rec.configs {
		a := arches[ac.arch]
		if a == nil || a.Broken {
			continue
		}
		p := core.NewConfigProvider()
		var gerr error
		gen.measure(func() { _, _, gerr = p.Get(base, a, ac.config, nil) })
		if gerr != nil {
			return fmt.Errorf("config %s%s for %s: %w", ac.config.Kind, ac.config.Path, ac.arch, gerr)
		}
	}
	o.set("kconfig.config_gen_ms", gen.meanMS())
	o.samples["kconfig.config_gen"] = gen.n
	for _, ac := range rec.configs {
		if ac.config.Kind == core.ConfigDefconfig {
			o.samples["kconfig.defconfigs"]++
		}
	}

	var clone timer
	for range ids {
		clone.measure(func() { base.Clone() })
	}
	o.set("fstree.clone_ms", clone.meanMS())
	o.set("fstree.clone_alloc_kb", clone.meanKB())

	configs := core.NewConfigProvider()
	model := vclock.DefaultModel(1)
	var checkout, diffs, mutate, parse, reach, pre, comp, check timer
	sess, err := core.NewSession(base)
	if err != nil {
		return err
	}
	for _, id := range ids {
		var tree *fstree.Tree
		var fds []textdiff.FileDiff
		var cerr, derr error
		checkout.measure(func() { tree, cerr = repo.CheckoutTree(id) })
		diffs.measure(func() { fds, derr = repo.FileDiffs(id) })
		if cerr != nil || derr != nil {
			return fmt.Errorf("replaying %s: %v %v", id, cerr, derr)
		}
		kept := relevant(fds)
		if _, ok := o.metrics["core.check_patch_ms"]; !ok {
			var perr error
			check.measure(func() {
				_, perr = sess.Checker(tree, vclock.DefaultModel(uint64(len(id))), jmake.Options{}).CheckPatch(id, kept)
			})
			if perr != nil {
				return perr
			}
		}
		for _, fd := range kept {
			content, err := tree.Read(fd.NewPath)
			if err != nil {
				continue // deleted by the commit
			}
			lines := textdiff.ChangedNewLines(fd, strings.Count(content, "\n")+1)
			mutate.measure(func() { core.Mutate(fd.NewPath, content, lines) })
		}
		for _, c := range rec.compiles[id] {
			a := arches[c.arch]
			if a == nil || a.Broken {
				continue
			}
			dir := path.Dir(c.path)
			for _, mk := range []string{"Makefile", "Kbuild"} {
				mkPath := path.Join(dir, mk)
				if text, err := tree.Read(mkPath); err == nil {
					parse.measure(func() { kbuild.ParseMakefile(mkPath, text, c.arch) })
				}
			}
			cfg, _, err := configs.Get(base, a, c.config, nil)
			if err != nil {
				return err
			}
			b, err := kbuild.NewBuilder(tree, a, cfg, meta, model)
			if err != nil {
				return err
			}
			reach.measure(func() { b.Reachable(c.path) })
			var ifs []kbuild.IFile
			pre.measure(func() {
				b, _ := kbuild.NewBuilder(tree, a, cfg, meta, model) // cannot fail: it just succeeded
				ifs, _ = b.MakeI([]string{c.path})
			})
			if len(ifs) == 1 && ifs[0].Err == nil {
				comp.measure(func() { cc.Compile(ifs[0].Text) })
			}
		}
	}
	o.set("vcs.checkout_ms", checkout.meanMS())
	o.set("vcs.checkout_alloc_kb", checkout.meanKB())
	o.set("vcs.filediffs_ms", diffs.meanMS())
	if check.n > 0 {
		o.set("core.check_patch_ms", check.meanMS())
	}
	o.set("core.mutate_us", mutate.meanUS())
	o.set("kbuild.parse_makefile_us", parse.meanUS())
	o.set("kbuild.parse_makefile_alloc_kb", parse.meanKB())
	o.set("kbuild.reachable_us", reach.meanUS())
	o.set("cpp.preprocess_ms_per_tu", pre.meanMS())
	o.set("cpp.alloc_kb_per_tu", pre.meanKB())
	o.set("cc.compile_ms_per_tu", comp.meanMS())
	o.set("cc.alloc_kb_per_tu", comp.meanKB())
	o.samples["cpp.tus"] = pre.n
	o.samples["cc.tus"] = comp.n
	o.samples["kbuild.makefiles"] = parse.n
	return replayIncr(built, o)
}

// replayIncr replays the commit stream from the window base the way a
// follower advances, timing Session.Refresh, Index.Update and
// Index.Dependents. Its invalidation counts see static include and Kbuild
// edges only (no check runs, so no cache manifests); the follow workload
// reports the follower's own counts instead.
func replayIncr(built *cliopts.Built, o *outcome) error {
	repo := built.Hist.Repo
	ids := built.WindowIDs
	tree, err := repo.CheckoutTree(ids[0])
	if err != nil {
		return err
	}
	ix := incr.NewIndex(tree)
	sess, err := core.NewSession(tree)
	if err != nil {
		return err
	}
	sess.EnableWarm()
	inWindow := make(map[string]bool, len(ids))
	for _, id := range ids[1:] {
		inWindow[id] = true
	}
	seq, err := repo.Since(ids[0])
	if err != nil {
		return err
	}
	last := ids[len(ids)-1]
	var refresh, update, deps timer
	invalidated, structural, steps := 0, 0, 0
	for _, cid := range seq {
		c, err := repo.Get(cid)
		if err != nil {
			return err
		}
		paths := make([]string, 0, len(c.Changes))
		for _, ch := range c.Changes {
			paths = append(paths, ch.Path)
			if ch.New == "" {
				_ = tree.Remove(ch.Path) // absent already is fine
				continue
			}
			tree.Write(ch.Path, repo.Blob(ch.New))
		}
		if inWindow[cid] {
			var d []string
			deps.measure(func() { d = ix.Dependents(tree, sess.ResultCache(), paths) })
			invalidated += len(d)
			if incr.Structural(paths) {
				structural++
			}
			steps++
		}
		update.measure(func() { ix.Update(tree, paths) })
		var rerr error
		refresh.measure(func() { _, rerr = sess.Refresh(tree, paths) })
		if rerr != nil {
			return rerr
		}
		if cid == last {
			break
		}
	}
	o.set("incr.refresh_us", refresh.meanUS())
	o.set("incr.index_update_us", update.meanUS())
	o.set("incr.dependents_us", deps.meanUS())
	if _, ok := o.metrics["incr.invalidated_tus_per_op"]; !ok {
		o.set("incr.invalidated_tus_per_op", float64(invalidated)/float64(steps))
		o.set("incr.structural_ratio", float64(structural)/float64(steps))
	}
	return nil
}
