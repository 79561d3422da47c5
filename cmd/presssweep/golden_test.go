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

// runCaptured runs presssweep with args and returns what it wrote to
// stdout. The CSV goes to os.Stdout, so that is pointed at a file for the
// duration of the run.
func runCaptured(t *testing.T, args ...string) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = saved
	if runErr != nil {
		t.Fatal(runErr)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSweepGolden pins each subcommand's default output byte for byte:
// the sweeps are deterministic per seed, so any change to the science or
// the searchers, however small, shows up here. Rerun with -update only
// when the change is intended, and say why in the commit.
func TestSweepGolden(t *testing.T) {
	if fpexact.Contracts() {
		t.Skip("this target fuses multiply-adds; testdata/*.golden holds only where they round separately")
	}
	for _, sub := range []string{"convergence", "budget", "density"} {
		t.Run(sub, func(t *testing.T) {
			got := runCaptured(t, sub)
			path := filepath.Join("testdata", sub+".golden")
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
			if bytes.Equal(got, want) {
				return
			}
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < min(len(gl), len(wl)); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
		})
	}
}
