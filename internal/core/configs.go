package core

import (
	"fmt"

	"jmake/internal/faultinject"
	"jmake/internal/fstree"
	"jmake/internal/kbuild"
	"jmake/internal/kconfig"
	"jmake/internal/memo"
	"jmake/internal/metrics"
)

// ConfigProvider caches parsed Kconfig trees and computed configurations
// across patches. The evaluation re-creates configurations for every patch
// (the paper cleans the working tree between patches, so `make
// allyesconfig` runs again and its cost is charged again), but the
// *valuation* is identical as long as the Kconfig files are unchanged, so
// caching it is sound and keeps the 12,000-patch evaluation tractable.
//
// Both caches are memo.Memo instances, safe for concurrent use by the
// evaluation workers: every parse and valuation is computed exactly once,
// outside any lock, failures are never cached, and the hit/miss counters
// are invariant under concurrency (misses always equal the number of
// distinct keys), keeping pipeline metrics reproducible across -workers
// settings.
type ConfigProvider struct {
	trees  *memo.Memo[string, *kconfig.Tree]
	values *memo.Memo[configKey, valuation]
}

// configKey identifies one (arch, choice) valuation.
type configKey struct {
	arch string
	kind ConfigKind
	path string
}

type valuation struct {
	cfg     *kconfig.Config
	symbols int
}

// CacheStats are lookup counters for one shared cache.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// HitRate returns Hits over total lookups (0 when never used).
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// NewConfigProvider returns an empty provider counting into a private
// registry.
func NewConfigProvider() *ConfigProvider {
	return NewConfigProviderIn(metrics.NewRegistry())
}

// NewConfigProviderIn returns an empty provider whose counters are
// series in reg ("config_cache_*" for valuations, "kconfig_tree_cache_*"
// for parses).
func NewConfigProviderIn(reg *metrics.Registry) *ConfigProvider {
	return &ConfigProvider{
		trees:  memo.New[string, *kconfig.Tree](reg, "kconfig_tree_cache"),
		values: memo.New[configKey, valuation](reg, "config_cache"),
	}
}

// KconfigTree returns the parsed Kconfig hierarchy for an architecture,
// parsing it exactly once per arch no matter how many workers ask.
func (p *ConfigProvider) KconfigTree(t *fstree.Tree, arch *kbuild.Arch) (*kconfig.Tree, error) {
	kt, _, err := p.trees.Do(arch.Name, func() (*kconfig.Tree, error) {
		kt, err := kconfig.Parse(kbuild.TreeSource{T: t}, arch.KconfigRoot)
		if err != nil {
			return nil, fmt.Errorf("core: parsing %s: %w", arch.KconfigRoot, err)
		}
		return kt, nil
	})
	return kt, err
}

// Get returns the configuration for (arch, choice), computing and caching
// it on first use. The returned symbol count prices the virtual
// `make allyesconfig` / defconfig invocation. inj optionally injects
// transient generation failures — the valuation cache cannot absorb
// those, because the paper's evaluation regenerates the configuration
// for every patch and any regeneration can fail; pass nil to disable.
func (p *ConfigProvider) Get(t *fstree.Tree, arch *kbuild.Arch, choice ConfigChoice, inj *faultinject.Injector) (*kconfig.Config, int, error) {
	cfg, symbols, _, err := p.Lookup(t, arch, choice, inj)
	return cfg, symbols, err
}

// Lookup is Get additionally reporting whether the valuation was served
// from cache. The warm-session ledger uses the hit bit to credit the
// charged `make *config` price as saved effective time; the charge itself
// is unconditional either way, so reports stay byte-identical.
func (p *ConfigProvider) Lookup(t *fstree.Tree, arch *kbuild.Arch, choice ConfigChoice, inj *faultinject.Injector) (*kconfig.Config, int, bool, error) {
	if inj.FailConfig(arch.Name + ":" + choice.Kind.String() + choice.Path) {
		return nil, 0, false, fmt.Errorf("%w: config generation failed (%s, %s)",
			kbuild.ErrTransient, arch.Name, choice.Kind)
	}
	v, hit, err := p.values.Do(configKey{arch.Name, choice.Kind, choice.Path}, func() (valuation, error) {
		cfg, symbols, err := p.compute(t, arch, choice)
		return valuation{cfg, symbols}, err
	})
	return v.cfg, v.symbols, hit, err
}

// Invalidate drops every cached parse and valuation for one architecture.
// A commit-stream follower calls this when a commit touches the arch's
// Kconfig inputs: the next request re-parses and re-valuates against the
// advanced tree, so warm answers stay provably equal to a cold session's.
func (p *ConfigProvider) Invalidate(archName string) {
	p.trees.Forget(func(a string) bool { return a == archName })
	p.values.Forget(func(k configKey) bool { return k.arch == archName })
}

// InvalidateAll drops every cached parse and valuation (shared Kconfig
// input changed — any arch's valuation may be stale).
func (p *ConfigProvider) InvalidateAll() {
	p.trees.Forget(memo.All)
	p.values.Forget(memo.All)
}

// compute performs one full valuation — Kconfig tree parse (itself a
// cached election) plus the choice's config derivation — outside any
// provider-wide lock.
func (p *ConfigProvider) compute(t *fstree.Tree, arch *kbuild.Arch, choice ConfigChoice) (*kconfig.Config, int, error) {
	kt, err := p.KconfigTree(t, arch)
	if err != nil {
		return nil, 0, err
	}
	var cfg *kconfig.Config
	switch choice.Kind {
	case ConfigAllMod:
		cfg = kt.AllModConfig()
	case ConfigDefconfig:
		content, rerr := t.Read(choice.Path)
		if rerr != nil {
			return nil, 0, fmt.Errorf("core: defconfig %s: %w", choice.Path, rerr)
		}
		cfg, err = kt.ApplyDefconfig(content)
		if err != nil {
			return nil, 0, fmt.Errorf("core: defconfig %s: %w", choice.Path, err)
		}
	default:
		cfg = kt.AllYesConfig()
	}
	return cfg, kt.Len(), nil
}

// Stats returns the valuation-cache counters (a view over the registry
// series).
func (p *ConfigProvider) Stats() CacheStats {
	h, m := p.values.Stats()
	return CacheStats{Hits: h, Misses: m}
}
