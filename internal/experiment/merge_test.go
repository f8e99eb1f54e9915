package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"probquorum/internal/check"
	"probquorum/internal/quorum"
)

// fill gives every number reachable from v — through struct fields and
// slices, which get two elements — its own nonzero value.
func fill(v reflect.Value, next *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), next)
		}
	case reflect.Int, reflect.Int64:
		*next++
		v.SetInt(int64(*next))
	case reflect.Uint64:
		*next++
		v.SetUint(uint64(*next))
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next))
	case reflect.String:
		v.SetString("x")
	default:
		panic(fmt.Sprintf("fill: no rule for a %v", v.Type()))
	}
}

// filled returns a T with every number set.
func filled[T any]() T {
	var v T
	next := 0
	fill(reflect.ValueOf(&v).Elem(), &next)
	return v
}

// merged2 checks got, the merge of two copies of one, field by field and
// reports each wrong field by its path: a number must have doubled — unless
// its address is in means, or it is a bucket's start T, which must be what
// one holds — and the violation details must have been concatenated. A field the merge forgot comes back zero; a field
// declared later and not yet summed or listed fails the same way.
func merged2(t *testing.T, path string, one, got reflect.Value, means map[*float64]bool) {
	switch one.Kind() {
	case reflect.Struct:
		for i := 0; i < one.NumField(); i++ {
			merged2(t, path+"."+one.Type().Field(i).Name, one.Field(i), got.Field(i), means)
		}
	case reflect.Slice:
		if _, details := one.Interface().([]check.Violation); details {
			if got.Len() != 2*one.Len() {
				t.Errorf("%s: %d entries after merging two runs of %d", path, got.Len(), one.Len())
			}
			return
		}
		if got.Len() != one.Len() {
			t.Fatalf("%s: %d buckets after merging runs of %d", path, got.Len(), one.Len())
		}
		for i := 0; i < one.Len(); i++ {
			merged2(t, fmt.Sprintf("%s[%d]", path, i), one.Index(i), got.Index(i), means)
		}
	case reflect.Int, reflect.Int64:
		if got.Int() != 2*one.Int() {
			t.Errorf("%s = %d after merging two runs of %d, want the sum", path, got.Int(), one.Int())
		}
	case reflect.Uint64:
		if got.Uint() != 2*one.Uint() {
			t.Errorf("%s = %d after merging two runs of %d, want the sum", path, got.Uint(), one.Uint())
		}
	case reflect.Float64:
		want, kind := 2*one.Float(), "sum"
		if means[got.Addr().Interface().(*float64)] || strings.HasSuffix(path, ".T") {
			want, kind = one.Float(), "mean"
		}
		if got.Float() != want {
			t.Errorf("%s = %v after merging two runs of %v, want the %s %v", path, got.Float(), one.Float(), kind, want)
		}
	}
}

// TestMergesCoverEveryField guards every merge over seeds against a forgotten
// field: the owner Add methods (quorum.Counters, check.Report, Tally) and the
// three merges built on them. Deleting a line from an Add, or a pointer from a
// means() list, fails here with the field's name.
func TestMergesCoverEveryField(t *testing.T) {
	elem := func(p any) reflect.Value { return reflect.ValueOf(p).Elem() }

	tally := filled[Tally]()
	tallies := tally
	tallies.add(tally)
	merged2(t, "Tally", elem(&tally), elem(&tallies), nil)

	counters := filled[quorum.Counters]()
	countersSum := counters
	countersSum.Add(counters)
	merged2(t, "quorum.Counters", elem(&counters), elem(&countersSum), nil)

	report := filled[check.Report]()
	reportSum := report
	reportSum.Add(report)
	merged2(t, "check.Report", elem(&report), elem(&reportSum), nil)

	means := map[*float64]bool{}
	mark := func(ps []*float64) {
		for _, p := range ps {
			means[p] = true
		}
	}

	run := filled[Result]()
	runs := mergeRuns([]Result{run, run})
	mark(runs.means())
	for bi := range runs.Decay {
		mark(runs.Decay[bi].means())
	}
	merged2(t, "Result", elem(&run), elem(&runs), means)

	chaos := filled[ChaosResult]()
	chaosSum := mergeChaos([]ChaosResult{chaos, chaos})
	merged2(t, "ChaosResult", elem(&chaos), elem(&chaosSum), nil)

	cell := filled[AdaptVariantResult]()
	cells := mergeAdapt([]AdaptVariantResult{cell, cell})
	mark(cells.means())
	for bi := range cells.Buckets {
		mark(cells.Buckets[bi].means())
	}
	merged2(t, "AdaptVariantResult", elem(&cell), elem(&cells), means)
}
