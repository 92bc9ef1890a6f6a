package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode and the
// self-tests read.
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

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// runRecord is one line of a steadiness JSONL file: one run's result.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	result
}

// steadyRuns runs every workload n times, one child process per run
// with seeds 1 to n, then prints the steadiness table. Each child is
// waited for before the next starts. Bounds come from BENCHMARK.json in
// the working directory.
func steadyRuns(n int, seconds float64, out string, stdout, stderr io.Writer) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var sink io.Writer = io.Discard
	if out != "" {
		f, err := os.OpenFile(out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = f
	}
	var recs []runRecord
	for _, w := range workloads {
		name := w.name
		for seed := uint64(1); seed <= uint64(n); seed++ {
			cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = stderr
			stdoutBytes, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			rec := runRecord{Workload: name, Seed: seed}
			if err := json.Unmarshal(lastLine(stdoutBytes), &rec.result); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
			}
			line, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintln(sink, string(line)); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "%s seed %d: correct=%v attempted=%d failed=%d\n", name, seed, rec.Correct, rec.Attempted, rec.Failed)
			recs = append(recs, rec)
		}
	}
	printSteadiness(spec, recs, stdout)
	return nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// printSteadiness prints, per workload and end-to-end metric, the median,
// quartiles and spread of the runs beside the metric's bound. A spread
// under a third of the bound is steady, one under the bound loose.
func printSteadiness(spec *benchSpec, recs []runRecord, w io.Writer) {
	for _, name := range workloadOrder(recs) {
		rs := recordsOf(recs, name)
		fmt.Fprintf(w, "%s: %d runs, failed share %s, all correct %v\n", name, len(rs), failedShares(rs), allCorrect(rs))
		fmt.Fprintf(w, "  %-18s %12s %12s %12s %8s %6s %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			xs := values(rs, m.Name)
			q, ok := quartiles(append([]float64(nil), xs...))
			if !ok {
				fmt.Fprintf(w, "  %-18s needs at least two runs\n", m.Name)
				continue
			}
			sp := spread(xs)
			verdict := "steady"
			switch {
			case sp >= m.Bound:
				verdict = "UNSTEADY"
			case sp >= m.Bound/3:
				verdict = "loose"
			}
			fmt.Fprintf(w, "  %-18s %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %s\n", m.Name, median(xs), q[0], q[2], 100*sp, 100*m.Bound, verdict)
		}
	}
}

// compareSets compares two steadiness files: for every workload and
// end-to-end metric, how far the second set's median moved from the
// first's in the metric's worse direction, against its bound, and
// whether the failed shares agree exactly.
func compareSets(pathA, pathB string, w io.Writer) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	for _, name := range workloadOrder(a) {
		ra, rb := recordsOf(a, name), recordsOf(b, name)
		if len(rb) == 0 {
			fmt.Fprintf(w, "%s: missing from %s\n", name, pathB)
			continue
		}
		same := failedShares(ra) == failedShares(rb)
		fmt.Fprintf(w, "%s: %d vs %d runs, failed shares %s vs %s (equal %v)\n", name, len(ra), len(rb), failedShares(ra), failedShares(rb), same)
		for _, m := range spec.EndToEnd {
			ma, mb := median(values(ra, m.Name)), median(values(rb, m.Name))
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			if worse > m.Bound {
				verdict = "WORSE THAN BOUND"
			}
			fmt.Fprintf(w, "  %-18s %12.6g -> %12.6g  worse by %+7.2f%% (bound %.0f%%) %s\n", m.Name, ma, mb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return nil
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func workloadOrder(recs []runRecord) []string {
	var names []string
	seen := make(map[string]bool)
	for _, r := range recs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}

func recordsOf(recs []runRecord, name string) []runRecord {
	var out []runRecord
	for _, r := range recs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []runRecord, metric string) []float64 {
	xs := make([]float64, 0, len(rs))
	for _, r := range rs {
		xs = append(xs, r.Metrics[metric].Value)
	}
	return xs
}

// failedShares lists the distinct failed/attempted shares of a set of
// runs; a steady benchmark has exactly one.
func failedShares(rs []runRecord) string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range rs {
		s := "NaN"
		if r.Attempted > 0 {
			s = strconv.FormatFloat(float64(r.Failed)/float64(r.Attempted), 'g', -1, 64)
		}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return strings.Join(out, ",")
}

func allCorrect(rs []runRecord) bool {
	for _, r := range rs {
		if !r.Correct {
			return false
		}
	}
	return true
}
