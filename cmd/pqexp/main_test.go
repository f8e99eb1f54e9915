package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestFigureTableCoversOldDispatch pins the table against what the switch,
// the special-case blocks and the `all` list it replaced accepted: every
// name and alias resolves (case-insensitively), aliases land on their
// figure, and `all` is the same figures in the same order — the order of
// results_quick.txt.
func TestFigureTableCoversOldDispatch(t *testing.T) {
	aliasOf := map[string]string{
		"fig3": "", "fig4": "", "fig5": "", "fig6": "", "fig7": "", "fig8": "", "fig9": "",
		"fig10": "", "fig11": "", "fig12": "", "fig13": "", "fig14": "", "fig15": "", "fig16": "",
		"tau": "", "lemma56": "tau", "fig4series": "", "crt": "", "crossing": "crt",
		"decay": "", "churn": "decay", "chaos": "", "faults": "chaos",
		"spot": "", "mega": "", "load": "", "adapt": "",
	}
	for name, canonical := range aliasOf {
		if canonical == "" {
			canonical = name
		}
		for _, spelled := range []string{name, strings.ToUpper(name)} {
			f, ok := lookupFigure(spelled)
			if !ok || f.name != canonical || f.run == nil {
				t.Errorf("lookupFigure(%q) = %q, %v; want %q", spelled, f.name, ok, canonical)
			}
		}
	}
	if _, ok := lookupFigure(""); ok {
		t.Error("the empty name resolved (an entry without alias must not match it)")
	}

	var all []string
	for _, f := range figures {
		if f.inAll {
			all = append(all, f.name)
		}
	}
	want := []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "tau", "fig4series", "crt", "decay", "chaos", "spot"}
	if !reflect.DeepEqual(all, want) {
		t.Errorf("`all` runs %v\nwant      %v", all, want)
	}
}

// TestRunRejectsUnknownNamesAndRetiredFlags: a typo is an error that lists
// the catalogue, and retired flags — the per-tier ones -short/-n replaced,
// and -shards, whose parallel phase is gone — are errors, not silently
// accepted.
func TestRunRejectsUnknownNamesAndRetiredFlags(t *testing.T) {
	err := run([]string{"fig99"})
	if err == nil || !strings.Contains(err.Error(), `unknown figure "fig99"`) || !strings.Contains(err.Error(), "fig10") {
		t.Errorf("unknown figure: err = %v", err)
	}
	if err := run(nil); err == nil {
		t.Error("no figure given: no error")
	}
	for _, flag := range []string{"-megashort", "-loadshort", "-adaptshort", "-megadense", "-megan=10", "-gigan=10", "-shards=2"} {
		if err := run([]string{flag, "fig3"}); err == nil {
			t.Errorf("retired flag %s still accepted", flag)
		}
	}
}

// TestRunRejectsNegativeSizes: a negative count is an error naming its flag,
// before anything runs — not a panic deep in the tier (-n in netstack, -seeds
// slicing adapt's runs) or a silently ignored override (-bign).
func TestRunRejectsNegativeSizes(t *testing.T) {
	for _, args := range [][]string{
		{"-short", "-n", "-100", "mega"},
		{"-short", "-seeds", "-1", "adapt"},
		{"-bign", "-1", "fig3"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), args[len(args)-3]+" must not be negative") {
			t.Errorf("pqexp %v: err = %v, want a negative %s rejected", args, err, args[len(args)-3])
		}
	}
}
