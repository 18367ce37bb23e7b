package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain reads two files of results (the JSON lines --out appends)
// and prints, per workload and metric, the change of the median against
// the metric's bound, marked better, worse, unresolved or same.
//
// A metric is worse when the new median is worse by more than its
// bound; unresolved when the runs of either side spread wider than the
// bound, unless every new run beats (or loses to) every old run; better
// when the median improved by more than the old runs' own spread and the
// new run wins at least nine of ten pairs of runs with the same seed and
// mode. Per-layer metrics have no bound and print the change only.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: kdbbench compare OLD.jsonl NEW.jsonl")
	}
	old, err := readResults(args[0])
	if err != nil {
		return err
	}
	cur, err := readResults(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-5s %-30s %12s %12s %9s %7s  %s\n", "workload", "trace", "metric", "old", "new", "change", "bound", "verdict")
	for _, key := range sortedKeys(old) {
		n, ok := cur[key]
		if !ok {
			continue
		}
		o := old[key]
		for _, metric := range sortedKeys(o.values) {
			def, _ := lookupMetric(metric)
			ov, nv := o.values[metric], n.values[metric]
			if len(nv) == 0 {
				continue
			}
			v := verdict(def, ov, nv, o.seeds[metric], n.seeds[metric])
			fmt.Fprintf(w, "%-10s %-5d %-30s %12.6g %12.6g %+8.1f%% %6.0f%%  %s\n",
				key.workload, key.trace, metric, median(append([]float64(nil), ov...)), median(append([]float64(nil), nv...)),
				100*v.change, 100*def.Bound, v.mark)
		}
	}
	return nil
}

type runKey struct {
	workload string
	trace    int
}

// series are one side's values per metric, with the seed of each run.
type series struct {
	values map[string][]float64
	seeds  map[string][]int64
}

func readResults(path string) (map[runKey]*series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[runKey]*series{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		k := runKey{r.Workload, r.Trace}
		s := out[k]
		if s == nil {
			s = &series{values: map[string][]float64{}, seeds: map[string][]int64{}}
			out[k] = s
		}
		for m, v := range r.Metrics {
			s.values[m] = append(s.values[m], v)
			s.seeds[m] = append(s.seeds[m], r.Seed)
		}
	}
	return out, sc.Err()
}

type judgement struct {
	change float64 // relative change of the median, positive = worse
	mark   string
}

// verdict judges one metric; see compareMain for the rules.
func verdict(def metricDef, old, cur []float64, oldSeeds, curSeeds []int64) judgement {
	_, om, _ := quartiles(old)
	_, nm, _ := quartiles(cur)
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	j := judgement{change: sign * (nm - om) / math.Abs(om)}
	if om == 0 {
		j.change = 0
		if nm != 0 {
			j.change = sign * math.Inf(1)
		}
	}
	if def.Bound == 0 {
		j.mark = "-"
		return j
	}
	spread := func(xs []float64) float64 {
		q1, q2, q3 := quartiles(xs)
		return (q3 - q1) / math.Abs(q2)
	}
	worse := func(a, b float64) bool { return sign*(a-b) > 0 } // a worse than b
	allBetter, allWorse := true, true
	for _, n := range cur {
		for _, o := range old {
			allBetter = allBetter && worse(o, n)
			allWorse = allWorse && worse(n, o)
		}
	}
	oldSpread := spread(old)
	switch {
	case max(oldSpread, spread(cur)) > def.Bound && !allBetter && !allWorse:
		j.mark = "unresolved"
	case j.change > def.Bound:
		j.mark = "worse"
	case -j.change > oldSpread && pairWins(old, cur, oldSeeds, curSeeds, worse) >= 0.9:
		j.mark = "better"
	default:
		j.mark = "same"
	}
	return j
}

// pairWins is the share of same-seed pairs in which the new run beats
// the old one; ties count for neither side.
func pairWins(old, cur []float64, oldSeeds, curSeeds []int64, worse func(a, b float64) bool) float64 {
	bySeed := map[int64]float64{}
	for i, s := range oldSeeds {
		bySeed[s] = old[i]
	}
	pairs, wins := 0, 0
	for i, s := range curSeeds {
		o, ok := bySeed[s]
		if !ok {
			continue
		}
		pairs++
		if worse(o, cur[i]) {
			wins++
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(wins) / float64(pairs)
}

func sortedKeys[K comparable, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
	return keys
}
