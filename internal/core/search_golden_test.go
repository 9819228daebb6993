package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"turbosyn/internal/bench"
)

// searchWork is what the search golden pins of a Minimize result: the
// achieved phi and LUT count and the work Stats. ArenaPeakBytes is zeroed:
// it is a footprint, not work.
type searchWork struct {
	Phi  int
	LUTs int
	Stats
}

func workOf(res *Result) searchWork {
	st := res.Stats
	st.ArenaPeakBytes = 0
	return searchWork{res.Phi, res.LUTs, st}
}

// TestSequentialSearchGolden pins what a one-probe-at-a-time binary search
// does on the quick FSM suite: the phi and LUT count it returns and every
// work counter it accumulates, under TurboSYN and TurboMap. One more case
// runs with a positive IterBudget, which runs its components sequentially
// whatever Workers says, so it is pinned at Workers 1 and 4 against the same
// values. The committed file is byte for byte what the update path writes.
// Regenerate deliberately with
// TURBOSYN_UPDATE_GOLDEN=1 go test ./internal/core -run TestSequentialSearchGolden.
func TestSequentialSearchGolden(t *testing.T) {
	circuits := map[string]bool{"bbara": true, "bbsse": true, "cse": true,
		"dk16": true, "keyb": true, "kirkman": true}
	type config struct {
		name    string
		workers []int
		opts    Options
	}
	turbomap := DefaultOptions()
	turbomap.Decompose = false
	budget := turbomap
	budget.PLD = false
	budget.IterBudget = 2000
	configs := []config{
		{"turbosyn", []int{1}, DefaultOptions()},
		{"turbomap", []int{1}, turbomap},
	}
	got := map[string]searchWork{}
	for _, cs := range bench.Suite() {
		if !circuits[cs.Name] {
			continue
		}
		cfgs := configs
		if cs.Name == "bbara" {
			cfgs = append(cfgs, config{"budget", []int{1, 4}, budget})
		}
		for _, cfg := range cfgs {
			for _, workers := range cfg.workers {
				opts := cfg.opts
				opts.Workers = workers
				res, err := minimizeOnce(cs.Circuit, opts)
				if err != nil {
					t.Fatalf("%s/%s/j%d: %v", cs.Name, cfg.name, workers, err)
				}
				w := workOf(res)
				key := cs.Name + "/" + cfg.name
				if prev, ok := got[key]; ok && prev != w {
					t.Errorf("%s: j%d work %+v differs from j1 %+v", key, workers, w, prev)
				}
				got[key] = w
			}
		}
	}

	golden := filepath.Join("testdata", "search.golden.json")
	if os.Getenv("TURBOSYN_UPDATE_GOLDEN") != "" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with TURBOSYN_UPDATE_GOLDEN=1)", err)
	}
	var want map[string]searchWork
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if canon, err := json.MarshalIndent(want, "", "  "); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(b, append(canon, '\n')) {
		t.Errorf("%s is not what TURBOSYN_UPDATE_GOLDEN=1 writes for its own values; regenerate it", golden)
	}
	if len(got) != len(want) {
		t.Errorf("%d cases, %s has %d", len(got), golden, len(want))
	}
	for key, g := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s missing from %s", key, golden)
		} else if g != w {
			t.Errorf("%s drifted from %s:\ngot  %+v\nwant %+v", key, golden, g, w)
		}
	}
}
