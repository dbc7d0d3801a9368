package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"rambda/internal/experiments"
)

// abRounds is how many paired runs an A/B makes of every kernel and
// figure. A regression must show in the median and in all but one of
// them.
const abRounds = 5

// abBuild is one side of an A/B: the two binaries built from one tree.
type abBuild struct {
	name           string
	bench, figures string
}

// runAB builds rev and the working tree, runs them alternately for
// abRounds rounds, writes one line per kernel and figure to w, and
// reports whether any regressed (see abRegressed).
func runAB(w io.Writer, rev string, quick bool, parallel int, specs []experiments.Spec, maxRegress float64) (failed bool, err error) {
	root, err := gitOutput("", "rev-parse", "--show-toplevel")
	if err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp("", "rambda-ab-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	src := filepath.Join(dir, "src")
	if err := checkoutRev(root, rev, src); err != nil {
		return false, err
	}
	base, err := buildSide("base "+rev, src, filepath.Join(dir, "base"))
	if err != nil {
		return false, err
	}
	cur, err := buildSide("working tree", root, filepath.Join(dir, "cur"))
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "ab: %s vs %s, %d rounds\n", cur.name, base.name, abRounds)

	ratios := map[string][]float64{}
	var skipped []string
	for r := 0; r < abRounds; r++ {
		bm, cm, err := paired(r, base, cur, func(b abBuild) (map[string]float64, error) {
			return b.microNs(filepath.Join(dir, fmt.Sprintf("micro-%d.json", r)))
		})
		if err != nil {
			return false, err
		}
		for name, c := range cm {
			if b, ok := bm[name]; ok && b > 0 {
				ratios[name] = append(ratios[name], c/b)
			}
		}
		for _, s := range specs {
			bc, cc, err := paired(r, base, cur, func(b abBuild) (time.Duration, error) {
				return b.figureCPU(quick, parallel, s.ID)
			})
			if err != nil {
				if r == 0 {
					skipped = append(skipped, fmt.Sprintf("figure %s: %v", s.ID, err))
				}
				continue
			}
			if bc > 0 {
				ratios["figure "+s.ID] = append(ratios["figure "+s.ID], float64(cc)/float64(bc))
			}
		}
	}
	for _, msg := range skipped {
		fmt.Fprintf(w, "ab %s, not gated\n", msg)
	}
	for _, name := range sortedKeys(ratios) {
		rs := ratios[name]
		status := "ok"
		if len(rs) < abRounds {
			status = "not gated (not timed in every round)"
		} else if abRegressed(rs, 1+maxRegress) {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "ab %-30s ratios %s  median %.2fx  %s\n", name, formatRatios(rs), median(rs), status)
	}
	if failed {
		fmt.Fprintf(w, "FAIL: paired time regression of %.0f%% or more vs %s\n", maxRegress*100, rev)
	}
	return failed, nil
}

// paired runs f on both builds, base first in even rounds and the
// working tree first in odd ones, so a drift of the host within a round
// does not always favor the same side.
func paired[T any](round int, base, cur abBuild, f func(abBuild) (T, error)) (b, c T, err error) {
	if round%2 == 1 {
		if c, err = f(cur); err == nil {
			b, err = f(base)
		}
		return b, c, err
	}
	if b, err = f(base); err == nil {
		c, err = f(cur)
	}
	return b, c, err
}

// abRegressed reports whether paired current/base ratios show a
// regression: at least limit in the median and in all rounds but one.
func abRegressed(ratios []float64, limit float64) bool {
	slow := 0
	for _, r := range ratios {
		if r >= limit {
			slow++
		}
	}
	return median(ratios) >= limit && slow >= len(ratios)-1
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func formatRatios(rs []float64) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = strconv.FormatFloat(r, 'f', 2, 64)
	}
	return strings.Join(parts, " ")
}

// microNs runs every kernel of the build once (-skip-figures) and
// returns its ns/op by kernel name.
func (b abBuild) microNs(out string) (map[string]float64, error) {
	cmd := exec.Command(b.bench, "-skip-figures", "-out", out)
	if msg, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("%s: kernels: %w\n%s", b.name, err, msg)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", b.name, out, err)
	}
	ns := make(map[string]float64, len(rep.Micro))
	for name, m := range rep.Micro {
		ns[name] = m.NsPerOp
	}
	return ns, nil
}

// figureCPU runs one figure with the build's rambda-figures and returns
// the child's user plus system CPU time.
func (b abBuild) figureCPU(quick bool, parallel int, id string) (time.Duration, error) {
	cmd := exec.Command(b.figures, "-quick="+strconv.FormatBool(quick), "-parallel", strconv.Itoa(parallel), "-only", id)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s: %w: %s", b.name, err, strings.TrimSpace(stderr.String()))
	}
	return cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(), nil
}

// buildSide builds rambda-bench and rambda-figures from the module at
// src into dir.
func buildSide(name, src, dir string) (abBuild, error) {
	b := abBuild{name: name, bench: filepath.Join(dir, "rambda-bench"), figures: filepath.Join(dir, "rambda-figures")}
	for _, target := range []struct{ out, pkg string }{{b.bench, "./cmd/rambda-bench"}, {b.figures, "./cmd/rambda-figures"}} {
		cmd := exec.Command("go", "build", "-o", target.out, target.pkg)
		cmd.Dir = src
		if msg, err := cmd.CombinedOutput(); err != nil {
			return b, fmt.Errorf("%s: go build %s: %w\n%s", name, target.pkg, err, msg)
		}
	}
	return b, nil
}

// checkoutRev checks out rev of the repository at root into dst: a
// local shared clone, detached at rev's commit. It needs no network and
// writes nothing to root's .git.
func checkoutRev(root, rev, dst string) error {
	sha, err := gitOutput(root, "rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return err
	}
	if _, err := gitOutput("", "clone", "--quiet", "--shared", "--no-checkout", root, dst); err != nil {
		return err
	}
	_, err = gitOutput(dst, "checkout", "--quiet", "--detach", sha)
	return err
}

// gitOutput runs git in dir and returns its trimmed stdout.
func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}
