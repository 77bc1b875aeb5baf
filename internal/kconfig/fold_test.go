package kconfig

import "testing"

// chainTree declares a two-level dependency chain: LEAF depends on MID,
// MID depends on ROOT && !BLOCK, plus a selector forcing FORCED.
func chainTree(t *testing.T) *Tree {
	t.Helper()
	return parseOne(t, `
config ROOT
	bool "root"

config BLOCK
	bool "block"

config MID
	bool "mid"
	depends on ROOT && !BLOCK

config LEAF
	tristate "leaf"
	depends on MID

config FORCED
	bool "forced"
	depends on BLOCK

config SELECTOR
	bool "selector"
	select FORCED
`)
}

func TestFoldExprRebuild(t *testing.T) {
	tree := chainTree(t)
	fns := FoldFuncs[string]{
		Sym: func(name string) string { return name },
		Not: func(x string) string { return "!" + x },
		And: func(l, r string) string { return "(" + l + " & " + r + ")" },
		Or:  func(l, r string) string { return "(" + l + " | " + r + ")" },
		Cmp: func(l, r Expr, ne bool) string { return "cmp" },
	}
	if got := FoldExpr(tree.Symbol("MID").DependsOn, fns); got != "(ROOT & !BLOCK)" {
		t.Errorf("FoldExpr(MID deps) = %q", got)
	}
	e, err := ParseExpr(`A || B = y`)
	if err != nil {
		t.Fatalf("ParseExpr: %v", err)
	}
	if got := FoldExpr(e, fns); got != "(A | cmp)" {
		t.Errorf("FoldExpr(cmp) = %q", got)
	}
}

func TestSelectTargets(t *testing.T) {
	tree := chainTree(t)
	got := tree.SelectTargets()
	if !got["FORCED"] || len(got) != 1 {
		t.Errorf("SelectTargets = %v", got)
	}
}
