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

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

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
	checkGolden(t, "all.golden", buf.Bytes())
}

// TestReplayGolden pins the replay of a two-trial recorded sweep byte for
// byte: the header, and the four Figure 5/6 headlines that the replay
// computes with the live figures' reductions.
func TestReplayGolden(t *testing.T) {
	if fpexact.Contracts() {
		t.Skip("this target fuses multiply-adds; testdata/replay.golden holds only where they round separately")
	}
	path := filepath.Join(t.TempDir(), "sweep.json")
	var buf bytes.Buffer
	if err := run([]string{"-exp", "record", "-record", path, "-trials", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"-exp", "replay", "-record", path}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "replay.golden", buf.Bytes())
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
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
