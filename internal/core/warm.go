package core

import (
	"slices"
	"sync/atomic"
	"time"

	"jmake/internal/memo"
	"jmake/internal/metrics"
)

// warmState carries the per-session caches and effective-time ledgers that
// make a long-lived follower session cheap between commits. It exists only
// when Session.EnableWarm was called; a nil warmState leaves every code
// path exactly as it was, so one-shot invocations are untouched.
//
// The dependability contract: nothing cached here may ever change a
// report byte. Cached arch choices and static Kconfig knowledge are pure
// recomputations of session-invariant inputs, held in memo.Memo caches
// (one computer per key even across concurrent follower batches, failures
// never cached) and invalidated by Session.Refresh the moment a commit
// touches those inputs; the ledgers only measure how much *effective*
// (wall-clock-analogue) time the warmth saved, while reported durations
// keep charging the full cold price.
type warmState struct {
	// archChoices caches Checker.selectArches results. Values are returned
	// as shallow copies so callers may reorder the slice; the inner Configs
	// slices are never mutated by callers (mergeArchChoices copies before
	// appending).
	archChoices *memo.Memo[choiceKey, []ArchChoice]
	// statics caches per-arch Kconfig knowledge for the static presence
	// pre-pass, promoted from the per-Checker map so a follower pays the
	// Kconfig walk once per session instead of once per commit.
	statics *memo.Memo[string, *archStatic]
	// setupDone marks (arch, kind, path) builder contexts whose one-time
	// make set-up already ran this session — the analogue of a build
	// directory that survives between commits. A hit means the mark was
	// already there: builders for that context get WarmSetup and their
	// charged set-up price lands in setupSavedNS.
	setupDone *memo.Memo[configKey, struct{}]

	// Ledgers (atomic nanoseconds; written from builder/checker hot paths,
	// read by the follower between commits).
	configSavedNS int64
	setupSavedNS  int64
}

// choiceKey identifies one selectArches call.
type choiceKey struct {
	file                     string
	useDefconfigs, tryAllMod bool
}

func newWarmState(reg *metrics.Registry) *warmState {
	return &warmState{
		archChoices: memo.New[choiceKey, []ArchChoice](reg, "warm_arch_choice"),
		statics:     memo.New[string, *archStatic](reg, "warm_arch_static"),
		setupDone:   memo.New[configKey, struct{}](reg, "warm_setup"),
	}
}

// WarmLedger is a snapshot of the session's saved-effective-time ledgers.
// The follower differences two snapshots around a commit to price that
// commit's effective cost: report total minus what warmth absorbed.
type WarmLedger struct {
	// ConfigSaved is charged `make *config` time served from the warm
	// valuation cache.
	ConfigSaved time.Duration
	// SetupSaved is charged per-builder set-up time for (arch, config)
	// contexts whose set-up already ran this session.
	SetupSaved time.Duration
}

func (w *warmState) ledger() WarmLedger {
	return WarmLedger{
		ConfigSaved: time.Duration(atomic.LoadInt64(&w.configSavedNS)),
		SetupSaved:  time.Duration(atomic.LoadInt64(&w.setupSavedNS)),
	}
}

func (w *warmState) addConfigSaved(d time.Duration) {
	if d > 0 {
		atomic.AddInt64(&w.configSavedNS, int64(d))
	}
}

// markSetup records that the context's set-up is about to run (or ran) and
// reports whether it had already run this session.
func (w *warmState) markSetup(k configKey) (was bool) {
	_, was, _ = w.setupDone.Do(k, func() (struct{}, error) { return struct{}{}, nil })
	return was
}

// selectArches serves the checker's candidate-architecture computation from
// the session cache, computing on miss. The returned outer slice is a copy
// (callers reorder it); inner Configs slices are shared, which is safe
// because no caller appends to a per-file Configs slice in place.
func (w *warmState) selectArches(c *Checker, file string, useDefconfigs bool) []ArchChoice {
	cached, _, _ := w.archChoices.Do(choiceKey{file, useDefconfigs, c.opts.TryAllModConfig}, func() ([]ArchChoice, error) {
		return c.computeSelectArches(file, useDefconfigs), nil
	})
	return slices.Clone(cached)
}

// staticArch serves per-arch static Kconfig knowledge from the session
// cache. Like the config provider, it never caches a failure: transient
// tree states must not poison the session.
func (w *warmState) staticArch(c *Checker, name string) *archStatic {
	as, _, _ := w.statics.Do(name, func() (*archStatic, error) {
		as := c.loadStatic(name)
		if as == nil {
			return nil, nil
		}
		return as, as.err
	})
	return as
}
