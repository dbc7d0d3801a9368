package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rambda/internal/obs"
)

// obsSpecs are the specs that collect observability data, each at a
// small configuration. spec builds a fresh Spec per run: a Spec's
// result slots are single-use.
var obsSpecs = []struct {
	id    string
	spec  func() Spec
	files []string // exact WriteObs output, sorted
	// metricsHas is a series the metrics export must carry: the spec's
	// own backend gauges reached the registry.
	metricsHas string
}{
	{"breakdown", func() Spec {
		cfg := DefaultBreakdownConfig()
		cfg.Requests = 400
		return BreakdownSpec(cfg)
	}, []string{"breakdown.metrics.json", "breakdown.trace.json"}, `"kvs.gets"`},
	{"scaleout", func() Spec {
		cfg := DefaultScaleoutConfig()
		cfg.Shards = []int{2, 4}
		cfg.Thetas = []float64{0, 0.99}
		cfg.Keys = 1 << 11
		cfg.Requests = 2400
		return ScaleoutSpec(cfg)
	}, []string{"scaleout.metrics.json"}, `"scaleout.migrations"`},
	{"chaos-scaleout", func() Spec {
		cfg := DefaultChaosScaleoutConfig()
		cfg.Shards = []int{4}
		cfg.CrashPerK = []int{0, 4}
		cfg.Keys = 1 << 11
		cfg.Requests = 2400
		return ChaosScaleoutSpec(cfg)
	}, []string{"chaos-scaleout.metrics.json"}, `"scaleout.failovers"`},
	{"ycsb", func() Spec {
		cfg := DefaultYCSBConfig()
		cfg.Keys = 1 << 11
		cfg.Requests = 2400
		return YCSBSpec(cfg)
	}, []string{"ycsb.metrics.json"}, `"ycsb.lsm.flushes"`},
}

// TestDeterministicObsExports is the golden determinism check of the
// observability export path: for every collecting spec, runs on two
// workers and on one must render the same table and make WriteObs
// write the same file set with byte-identical contents — virtual-time
// spans, integer timestamp math and sorted metric names leave no room
// for run-to-run or scheduling noise. Every other standard spec must
// collect nothing, so its machines stay on the collector's nil fast
// path.
func TestDeterministicObsExports(t *testing.T) {
	collecting := map[string]bool{}
	for _, c := range obsSpecs {
		collecting[c.id] = true
	}
	for _, s := range StandardSpecs(true) {
		if (s.Obs != nil) != collecting[s.ID] {
			t.Errorf("%s: Obs set = %v, want %v", s.ID, s.Obs != nil, collecting[s.ID])
		}
	}

	for _, c := range obsSpecs {
		c := c
		t.Run(c.id, func(t *testing.T) {
			var tables [2]string
			var dirs [2]string
			for k, workers := range []int{2, 1} {
				s := c.spec()
				tables[k] = RunSpec(workers, s).String()
				dirs[k] = t.TempDir()
				if err := WriteObs(dirs[k], s); err != nil {
					t.Fatal(err)
				}
			}
			if tables[0] != tables[1] {
				t.Fatalf("same seed, different tables:\n%s\n---\n%s", tables[0], tables[1])
			}
			for _, dir := range dirs {
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, e := range ents {
					got = append(got, e.Name())
				}
				sort.Strings(got)
				if strings.Join(got, ",") != strings.Join(c.files, ",") {
					t.Fatalf("WriteObs wrote %v, want %v", got, c.files)
				}
			}
			for _, name := range c.files {
				x, err := os.ReadFile(filepath.Join(dirs[0], name))
				if err != nil {
					t.Fatal(err)
				}
				y, err := os.ReadFile(filepath.Join(dirs[1], name))
				if err != nil {
					t.Fatal(err)
				}
				if len(x) == 0 {
					t.Fatalf("%s: empty export", name)
				}
				if !bytes.Equal(x, y) {
					t.Fatalf("%s differs between 2 workers and 1: same seed must export byte-identical files", name)
				}
				if strings.HasSuffix(name, ".metrics.json") && !bytes.Contains(x, []byte(c.metricsHas)) {
					t.Fatalf("%s lacks series %s", name, c.metricsHas)
				}
			}
		})
	}
}

// TestWriteObsReportsBadDir pins the error path: an export directory
// that cannot exist (a path under a regular file) is an error, not a
// panic.
func TestWriteObsReportsBadDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := Spec{ID: "x", Obs: func() ([]obs.TraceJSON, []obs.MetricsJSON) {
		return nil, []obs.MetricsJSON{{Name: "a", Registry: obs.NewRegistry()}}
	}}
	if err := WriteObs(filepath.Join(file, "obs"), s); err == nil {
		t.Fatal("WriteObs under a regular file returned nil error")
	}
}
