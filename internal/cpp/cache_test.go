package cpp

import (
	"fmt"
	"sync"
	"testing"
)

// Two different paths carrying identical content must share one cache
// entry: one miss for the first scan, hits for every later one. This is
// the "keyed by content identity" contract — the old key mixed the path
// in, so identical headers reached via different paths never deduped.
func TestTokenCacheDedupesAcrossPaths(t *testing.T) {
	c := NewTokenCache()
	const content = "#define A 1\nint a = A;\n"

	l1, t1 := c.scan("include/linux/a.h", content)
	l2, t2 := c.scan("arch/x86/include/a_copy.h", content)

	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats after two same-content scans = %d hits / %d misses, want 1/1", hits, misses)
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d, want 1 shared entry", c.Len())
	}
	// Same entry, not merely equal: the memoized slices must be shared.
	if &l1[0] != &l2[0] || &t1[0] != &t2[0] {
		t.Fatalf("same-content scans returned distinct memoized slices")
	}

	// Different content still misses.
	c.scan("include/linux/a.h", content+"\n// trailing\n")
	if hits, misses := c.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("stats after distinct-content scan = %d hits / %d misses, want 1/2", hits, misses)
	}
}

// Distinct contents never share an entry, however alike they are: the key
// is the content string itself, so a lookup can only serve tokens lexed
// from exactly the requested bytes. Near-identical contents (one byte
// apart, or a prefix of one another) each get their own tokens.
func TestTokenCacheKeysOnExactContent(t *testing.T) {
	c := NewTokenCache()
	contents := []string{
		"int real_content;\n",
		"int real_contenu;\n",
		"int real_content;\n\n",
		"int real_content;",
	}
	for round := 0; round < 2; round++ {
		for _, content := range contents {
			lines, toks := c.scan("same/path.h", content)
			want := Lex(logicalLines(content)[0].text)
			if len(lines) == 0 || len(toks) == 0 || len(toks[0]) != len(want) || toks[0][1].Text != want[1].Text {
				t.Fatalf("round %d: scan(%q) served tokens %+v, want %+v", round, content, toks, want)
			}
		}
	}
	if hits, misses := c.Stats(); hits != uint64(len(contents)) || misses != uint64(len(contents)) {
		t.Fatalf("stats = %d hits / %d misses, want %d/%d", hits, misses, len(contents), len(contents))
	}
	if c.Len() != len(contents) {
		t.Fatalf("Len() = %d, want %d", c.Len(), len(contents))
	}
}

// Concurrent first scans of one content elect exactly one lexer: misses
// stay equal to the number of distinct contents at any concurrency.
func TestTokenCacheConcurrentElection(t *testing.T) {
	c := NewTokenCache()
	const goroutines = 32
	const distinct = 7
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < distinct; k++ {
				content := fmt.Sprintf("int v%d = %d;\n", k, k)
				_, toks := c.scan(fmt.Sprintf("dir%d/f%d.h", g, k), content)
				if len(toks) != 1 {
					t.Errorf("scan(%d) returned %d token lines, want 1", k, len(toks))
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if misses != distinct {
		t.Fatalf("misses = %d, want %d (one per distinct content)", misses, distinct)
	}
	if hits != goroutines*distinct-distinct {
		t.Fatalf("hits = %d, want %d", hits, goroutines*distinct-distinct)
	}
}
