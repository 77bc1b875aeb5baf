// Package fstree provides an in-memory file tree used as the working copy
// for all source manipulation and compilation in this repository.
//
// The JMake paper runs its toolchain inside a 126 GB tmpfs to avoid disk
// bottlenecks; fstree plays the same role here. Paths are slash-separated,
// relative, and cleaned on every operation, so "./a//b" and "a/b" name the
// same file.
package fstree

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
)

// ErrNotExist is returned when a read or remove names a file that is not in
// the tree.
var ErrNotExist = errors.New("fstree: file does not exist")

// Tree is a mutable in-memory file tree. The zero value is not usable; call
// New. Tree is not safe for concurrent mutation; the evaluation harness
// gives each worker its own Tree, mirroring the paper's 25 kernel copies.
type Tree struct {
	files map[string]string
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{files: make(map[string]string)}
}

// Clean normalizes a tree path: slash-separated, no leading "./", no
// duplicate separators.
func Clean(p string) string {
	p = path.Clean(strings.ReplaceAll(p, "\\", "/"))
	p = strings.TrimPrefix(p, "/")
	if p == "." {
		return ""
	}
	return p
}

// Write creates or replaces the file at p with content.
func (t *Tree) Write(p, content string) {
	t.files[Clean(p)] = content
}

// Read returns the content of the file at p.
func (t *Tree) Read(p string) (string, error) {
	c, ok := t.files[Clean(p)]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	return c, nil
}

// Exists reports whether a file exists at p. Directories are implicit:
// Exists is about files only; use Under for directories.
func (t *Tree) Exists(p string) bool {
	_, ok := t.files[Clean(p)]
	return ok
}

// Remove deletes the file at p.
func (t *Tree) Remove(p string) error {
	cp := Clean(p)
	if _, ok := t.files[cp]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	delete(t.files, cp)
	return nil
}

// Len returns the number of files in the tree.
func (t *Tree) Len() int { return len(t.files) }

// Paths returns all file paths, sorted.
func (t *Tree) Paths() []string {
	out := make([]string, 0, len(t.files))
	for p := range t.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Under returns all file paths under directory dir, sorted. An empty dir
// returns every path.
func (t *Tree) Under(dir string) []string {
	prefix := Clean(dir)
	if prefix != "" {
		prefix += "/"
	}
	var out []string
	for p := range t.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the tree. Used for history checkpoints and
// per-worker working copies.
func (t *Tree) Clone() *Tree {
	nt := &Tree{files: make(map[string]string, len(t.files))}
	for p, c := range t.files {
		nt.files[p] = c
	}
	return nt
}

// WalkFunc is called by Walk for every file in sorted path order.
type WalkFunc func(path, content string) error

// Walk visits every file in sorted path order, stopping at the first error.
func (t *Tree) Walk(fn WalkFunc) error {
	for _, p := range t.Paths() {
		if err := fn(p, t.files[p]); err != nil {
			return err
		}
	}
	return nil
}
