package core

// Plan-identity golden test: an FNV-64a hash of every scheduler's plan
// over a grid of problem sizes and seeds, compared line by line with
// the committed testdata/planhashes.txt. A scheduler change that
// claims byte-identical plans must leave this test green; a change
// that alters plans on purpose regenerates the file with
//
//	go test ./internal/core -run TestPlanHashes -update

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updatePlanHashes = flag.Bool("update", false, "rewrite testdata/planhashes.txt from the current schedulers")

const planHashFile = "testdata/planhashes.txt"

// planHashes renders one line per (scheduler, n, seed) cell.
func planHashes(t *testing.T) []byte {
	t.Helper()
	m := testModel(t, 1)
	algs := []Scheduler{
		NewLOSS(), NewSLTF(), Scan{}, Weave{},
		NewLOSSCoalesced(DefaultCoalesceThreshold),
		NewSLTFCoalesced(DefaultCoalesceThreshold),
		NewSparseLOSS(), NewAuto(), Sort{}, FIFO{},
	}
	var buf bytes.Buffer
	line := func(alg Scheduler, n int, seed int64, p *Problem) {
		plan, err := alg.Schedule(p)
		if err != nil {
			t.Fatalf("%s n=%d: %v", alg.Name(), n, err)
		}
		h := fnv.New64a()
		for _, v := range plan.Order {
			fmt.Fprintf(h, "%d,", v)
		}
		fmt.Fprintf(&buf, "%s n=%d seed=%d %x\n", alg.Name(), n, seed, h.Sum64())
	}
	// 1536 is the longest batch of the paper's Fig. 4/6 sweep.
	for _, n := range []int{1, 2, 3, 8, 16, 96, 128, 256, 1024, 1536} {
		for seed := int64(1); seed <= 3; seed++ {
			p := randomProblem(t, m, n, seed*7919+int64(n))
			for _, alg := range algs {
				line(alg, n, seed, p)
			}
		}
	}
	// Standalone OPT at the top of Auto's n <= 10 dispatch range
	// (OptLimit) and past it.
	for n := 9; n <= 12; n++ {
		for seed := int64(1); seed <= 3; seed++ {
			line(NewOPT(12), n, seed, randomProblem(t, m, n, seed*7919+int64(n)))
		}
	}
	// OPT over its whole practical range, and Auto at the top of its
	// OPT dispatch, on seeds disjoint from the grid above.
	for n := 4; n <= 12; n++ {
		for seed := int64(1); seed <= 10; seed++ {
			line(NewOPT(12), n, seed, randomProblem(t, m, n, seed*104729+int64(n)))
		}
	}
	for _, n := range []int{9, 10} {
		for seed := int64(1); seed <= 10; seed++ {
			line(NewAuto(), n, seed, randomProblem(t, m, n, seed*104729+int64(n)))
		}
	}
	return buf.Bytes()
}

func TestPlanHashes(t *testing.T) {
	got := planHashes(t)
	if *updatePlanHashes {
		if err := os.MkdirAll(filepath.Dir(planHashFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planHashFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(planHashFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines := strings.Split(strings.TrimSpace(string(got)), "\n")
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d plan hashes, golden file has %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("plan changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
