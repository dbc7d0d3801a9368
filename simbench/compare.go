package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(root string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// readRecords reads the untraced records of a file written by -out.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// compareFiles prints, for each workload and end-to-end metric, the
// median and quartiles of runs A and B and a verdict against the
// metric's bound in BENCHMARK.json. It returns 1 when a metric of B is
// worse than A's by more than its bound, when B's failed fraction is
// higher, or when a run of B was not correct.
func compareFiles(root, pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 2
	}
	var sides [2][]record
	for i, p := range []string{pathA, pathB} {
		if sides[i], err = readRecords(p); err != nil {
			fmt.Fprintf(stderr, "simbench: %v\n", err)
			return 2
		}
	}
	bad := false
	for _, wl := range spec.Workloads {
		var runs [2][]record
		for i := range sides {
			for _, r := range sides[i] {
				if r.Workload == wl.Name {
					runs[i] = append(runs[i], r)
				}
			}
		}
		if len(runs[0]) == 0 || len(runs[1]) == 0 {
			fmt.Fprintf(stdout, "%s: runs A %d, B %d; not compared\n", wl.Name, len(runs[0]), len(runs[1]))
			bad = bad || len(runs[0]) > 0
			continue
		}
		for _, m := range spec.EndToEnd {
			var med, q1, q3 [2]float64
			for i := range runs {
				vs := make([]float64, len(runs[i]))
				for j, r := range runs[i] {
					vs[j] = r.Result.Metrics[m.Name].Value
				}
				med[i] = median(vs)
				q1[i], q3[i] = quartiles(vs)
			}
			worse := (m.Better == "lower" && med[1] > med[0]*(1+m.Bound)) ||
				(m.Better == "higher" && med[1] < med[0]*(1-m.Bound))
			verdict := "ok"
			if worse {
				verdict, bad = "WORSE", true
			}
			fmt.Fprintf(stdout, "%-12s %-13s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  %+.1f%% (bound %.0f%%)  %s\n",
				wl.Name, m.Name, med[0], q1[0], q3[0], med[1], q1[1], q3[1],
				100*(med[1]/med[0]-1), 100*m.Bound, verdict)
		}
		var frac [2]float64
		incorrect := 0
		for i := range runs {
			var attempted, failed int64
			for _, r := range runs[i] {
				attempted += r.Result.Attempted
				failed += r.Result.Failed
				if i == 1 && !r.Result.Correct {
					incorrect++
				}
			}
			frac[i] = float64(failed) / float64(max(attempted, 1))
		}
		verdict := "ok"
		if frac[1] > frac[0] || incorrect > 0 {
			verdict, bad = "FAIL", true
		}
		fmt.Fprintf(stdout, "%-12s %-13s A %.6g  B %.6g  (B runs not correct: %d)  %s\n",
			wl.Name, "failed_frac", frac[0], frac[1], incorrect, verdict)
	}
	if bad {
		return 1
	}
	return 0
}
