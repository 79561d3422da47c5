package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"press/internal/fpexact"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from the current code")

// TestExpAllGolden pins every figure's output byte for byte: the
// experiments are deterministic per seed, so any change to the science,
// however small, shows up here. Rerun with -update only when the change
// is intended, and say why in the commit.
func TestExpAllGolden(t *testing.T) {
	if fpexact.Contracts() {
		t.Skip("this target fuses multiply-adds; testdata/all.golden holds only where they round separately")
	}
	var buf bytes.Buffer
	if err := run([]string{"-exp", "all"}, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gotLines := strings.Split(string(got), "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}
