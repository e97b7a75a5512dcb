package exp

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden Figure 4 CSV under testdata/")

const figure4Golden = "testdata/figure4.csv"

// TestGoldenFigure4CSV pins the bytes fhsim writes for Figure 4: all
// six panels at 4 instances, seed 1, through WriteCSV. Any change to
// workload generation, a scheduler, the engine or the CSV format shows
// up here. Regenerate with `go test ./internal/exp -run
// TestGoldenFigure4CSV -update` only when the change is intended.
func TestGoldenFigure4CSV(t *testing.T) {
	tables, err := RunAll(Figure4(Options{Instances: 4, Seed: 1, Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tables); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(figure4Golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(figure4Golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := bytes.Split(buf.Bytes(), []byte("\n"))
		w := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(w); i++ {
			if !bytes.Equal(got[i], w[i]) {
				t.Fatalf("Figure 4 CSV diverged at line %d:\n  got:  %s\n  want: %s", i+1, got[i], w[i])
			}
		}
		t.Fatalf("Figure 4 CSV diverged: got %d lines, want %d", len(got), len(w))
	}
}
