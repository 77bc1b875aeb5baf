package cpp

import (
	"jmake/internal/memo"
	"jmake/internal/metrics"
)

// TokenCache memoizes the per-file scanning work (logical-line splitting
// and tokenization) keyed by content identity — the content string itself,
// never the path. Headers like the kernel's common includes are
// preprocessed thousands of times across an evaluation with identical
// content, frequently under *different* paths (the same header reached
// via different include dirs, or identical files in sibling drivers);
// all of them share one entry. Conditional evaluation and macro
// expansion still run per inclusion (they depend on the macro state),
// but the lexing does not. Because the key is the content, a lookup can
// only ever serve tokens lexed from exactly these bytes.
//
// Cached tokens are shared between preprocessor runs. This is safe
// because the expansion pipeline treats tokens as values: worklists copy
// token structs, and hide-set updates copy the slice (see Token.withHide).
//
// Both halves of the cache — scanned files and predefined macro sets —
// are memo.Memo instances, so they follow its election, failure and
// panic rules: each key is computed exactly once, and the miss count
// equals the number of distinct contents regardless of worker count.
type TokenCache struct {
	files *memo.Memo[string, *scannedFile]
	// predefs holds pre-lexed predefined macro sets. Cardinality is tiny
	// (arches x configurations x MODULE flag); no report reads its
	// "predefined_cache_*" counters.
	predefs *memo.Memo[PredefinedKey, *Predefined]
}

type scannedFile struct {
	lines []logicalLine
	toks  [][]Token
}

// PredefinedKey identifies one predefined macro set's content: within one
// token cache's lifetime (one checker, one discovered arch table) the arch
// name pins the arch built-ins and include dirs, and the configuration
// fingerprint covers every CONFIG_* value.
type PredefinedKey struct {
	Arch     string
	ConfigFP uint64
	Module   bool
}

// NewTokenCache returns an empty cache counting into a private registry.
func NewTokenCache() *TokenCache {
	return NewTokenCacheIn(metrics.NewRegistry())
}

// NewTokenCacheIn returns an empty cache whose counters are series in
// reg ("token_cache_hits"/"token_cache_misses"), so a shared session
// registry owns every cache's numbers.
func NewTokenCacheIn(reg *metrics.Registry) *TokenCache {
	return &TokenCache{
		files:   memo.New[string, *scannedFile](reg, "token_cache"),
		predefs: memo.New[PredefinedKey, *Predefined](reg, "predefined_cache"),
	}
}

// scan returns the logical lines and per-line tokens for content, from the
// cache when possible. The path is not part of the key.
func (c *TokenCache) scan(_, content string) ([]logicalLine, [][]Token) {
	f, _, _ := c.files.Do(content, func() (*scannedFile, error) {
		lines := logicalLines(content)
		toks := make([][]Token, len(lines))
		for i, ll := range lines {
			toks[i] = Lex(ll.text)
		}
		return &scannedFile{lines: lines, toks: toks}, nil
	})
	return f.lines, f.toks
}

// PredefinedFor returns the shared pre-lexed macro set for key, building
// it at most once per cache via build().
func (c *TokenCache) PredefinedFor(key PredefinedKey, build func() map[string]string) *Predefined {
	pre, _, _ := c.predefs.Do(key, func() (*Predefined, error) {
		return NewPredefined(build()), nil
	})
	return pre
}

// Len returns the number of cached files.
func (c *TokenCache) Len() int { return c.files.Len() }

// Stats returns the lookup counters (a view over the registry series).
// Misses equal the number of distinct contents ever requested, so both
// values are invariant under concurrency.
func (c *TokenCache) Stats() (hits, misses uint64) { return c.files.Stats() }
