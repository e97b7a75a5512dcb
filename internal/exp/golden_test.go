package exp

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure CSVs under testdata/")

// goldenFigures pins the bytes fhsim writes for every figure preset,
// each at seed 1 on one worker through WriteCSV. Figure 5 runs at 2
// instances (its tree panels dominate the table's wall time), the rest
// at 4. Each entry's cmd is the fhsim invocation whose -csv output
// equals the golden file byte for byte.
var goldenFigures = []struct {
	figure    string // key of Figures()
	instances int
	file      string
	cmd       string
}{
	{"4", 4, "testdata/figure4.csv", "fhsim -figure 4 -instances 4 -seed 1 -workers 1 -csv figure4.csv"},
	{"5", 2, "testdata/figure5.csv", "fhsim -figure 5 -instances 2 -seed 1 -workers 1 -csv figure5.csv"},
	{"6", 4, "testdata/figure6.csv", "fhsim -figure 6 -instances 4 -seed 1 -workers 1 -csv figure6.csv"},
	{"7", 4, "testdata/figure7.csv", "fhsim -figure 7 -instances 4 -seed 1 -workers 1 -csv figure7.csv"},
	{"8", 4, "testdata/figure8.csv", "fhsim -figure 8 -instances 4 -seed 1 -workers 1 -csv figure8.csv"},
	{"faults", 4, "testdata/faults.csv", "fhsim -figure faults -instances 4 -seed 1 -workers 1 -csv faults.csv"},
}

// TestGoldenFigureCSV checks every preset against its golden CSV. Any
// change to workload generation, a scheduler, the engine, the fault
// model or the CSV format shows up here. Figures 5 (ShiftBT on trees),
// 7 (preemptive mode) and faults (kill and failure re-enqueues) cover
// the pick paths Figure 4 does not. Regenerate with `go test
// ./internal/exp -run TestGoldenFigureCSV -update` only when the
// change is intended.
func TestGoldenFigureCSV(t *testing.T) {
	figs := Figures()
	for _, gf := range goldenFigures {
		t.Run(gf.figure, func(t *testing.T) {
			tables, err := RunAll(figs[gf.figure](Options{Instances: gf.instances, Seed: 1, Workers: 1}))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteCSV(&buf, tables); err != nil {
				t.Fatal(err)
			}
			if *updateGolden {
				if err := os.WriteFile(gf.file, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(gf.file)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if bytes.Equal(buf.Bytes(), want) {
				return
			}
			got := bytes.Split(buf.Bytes(), []byte("\n"))
			w := bytes.Split(want, []byte("\n"))
			for i := 0; i < len(got) && i < len(w); i++ {
				if !bytes.Equal(got[i], w[i]) {
					t.Fatalf("%s (= %s) diverged at line %d:\n  got:  %s\n  want: %s", gf.file, gf.cmd, i+1, got[i], w[i])
				}
			}
			t.Fatalf("%s (= %s) diverged: got %d lines, want %d", gf.file, gf.cmd, len(got), len(w))
		})
	}
}
