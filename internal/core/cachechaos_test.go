package core

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"turbosyn/internal/decomp/cachelog"
	"turbosyn/internal/faultinject"
)

// cacheChaosRun minimizes the fault circuit with the given cache directory
// and returns the bits a persisted cache must not change: phi, labels and
// the mapped network's node count.
func cacheChaosRun(t *testing.T, dir string) (int, []int, int) {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = 2
	opts.CacheDir = dir
	res, err := minimizeOnce(faultCircuit(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Phi, res.Labels, res.Mapped.NumNodes()
}

// TestCacheDirSurvivesCancel: a run aborted mid-search with a persistent
// cache directory attached must leave that directory loadable — the shutdown
// flush runs on the abort path too, and whatever it managed to write must be
// a valid log. A follow-up clean run against the same directory must succeed
// and produce results bit-identical to an uncached run.
func TestCacheDirSurvivesCancel(t *testing.T) {
	fenceGoroutines(t)
	dir := t.TempDir()
	c := faultCircuit(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, off := faultinject.Activate(faultinject.Config{
		CancelAtSweep: 3, OnCancel: cancel,
	})
	opts := DefaultOptions()
	opts.Workers = 2
	opts.CacheDir = dir
	_, err := minimizeOnceContext(ctx, c, opts)
	off()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	lg, err := cachelog.Open(dir)
	if err != nil {
		t.Fatalf("cache dir unusable after cancelled run: %v", err)
	}
	if _, err := lg.Load(); err != nil {
		t.Fatalf("log unloadable after cancelled run: %v", err)
	}

	phi, labels, nodes := cacheChaosRun(t, dir)
	basePhi, baseLabels, baseNodes := cacheChaosRun(t, "")
	if phi != basePhi || nodes != baseNodes || !reflect.DeepEqual(labels, baseLabels) {
		t.Fatalf("run after cancelled-flush cache differs from uncached run: phi %d vs %d, nodes %d vs %d",
			phi, basePhi, nodes, baseNodes)
	}
}

// TestCacheDirSurvivesTruncatedFlush: an interrupted flush (process killed
// mid-write, disk full) leaves an arbitrary byte prefix of the log. Every
// such prefix must load cleanly — the loader keeps the valid entries and
// drops the torn tail — and a run against the truncated directory must stay
// bit-identical to an uncached run.
func TestCacheDirSurvivesTruncatedFlush(t *testing.T) {
	fenceGoroutines(t)
	dir := t.TempDir()

	// Seed the directory with a full run's worth of entries.
	basePhi, baseLabels, baseNodes := cacheChaosRun(t, dir)
	path := filepath.Join(dir, "decomp.log")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 16 {
		t.Fatalf("log suspiciously small after a full run: %d bytes", len(full))
	}

	rng := rand.New(rand.NewSource(23))
	cuts := []int{0, 3, len(full) / 2, len(full) - 1}
	for i := 0; i < 4; i++ {
		cuts = append(cuts, rng.Intn(len(full)))
	}
	for _, cut := range cuts {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lg, err := cachelog.Open(dir)
		if err != nil {
			t.Fatalf("cut=%d: open failed: %v", cut, err)
		}
		if _, err := lg.Load(); err != nil {
			t.Fatalf("cut=%d: truncated log unloadable: %v", cut, err)
		}
		phi, labels, nodes := cacheChaosRun(t, dir)
		if phi != basePhi || nodes != baseNodes || !reflect.DeepEqual(labels, baseLabels) {
			t.Fatalf("cut=%d: run on truncated cache differs: phi %d vs %d", cut, phi, basePhi)
		}
	}
}
