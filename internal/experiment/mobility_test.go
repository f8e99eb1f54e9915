package experiment

import (
	"math"
	"testing"
)

// TestFastMobilityClaims is the paper's Fig. 13/14 claim, on the quick
// profile's fastMobility points with the figures' own seeds (base 1: +23
// without reply-path repair, +29 with). Without repair, the hit ratio falls
// with speed while the intersection stays near flat, and the gap is reply
// loss; with repair, hit follows intersection at every speed. Recorded on
// these seeds: Fig. 13 hit 0.85 → 0.55, intersection 0.92 → 0.81, reply
// drops 0.08 / 0.17 / 0.27 / 0.32; Fig. 14(a–d) largest |hit − intersection|
// 0.03; at 20 m/s repair lifts hit to 0.87.
func TestFastMobilityClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("SINR fast-mobility sweep skipped in -short mode")
	}
	p := Quick()
	var pts []Point
	for _, speed := range figSpeeds {
		pts = append(pts, Point{Scenario: fastMobility(p, 1+23, speed, false), Seeds: p.Seeds})
	}
	for _, speed := range figSpeeds {
		pts = append(pts, Point{Scenario: fastMobility(p, 1+29, speed, true), Seeds: p.Seeds})
	}
	res := RunSweep(pts, 0)
	without, with := res[:len(figSpeeds)], res[len(figSpeeds):]
	for i, speed := range figSpeeds {
		t.Logf("%4.0f m/s: Fig. 13 hit %.2f intersection %.2f reply drops %.2f; Fig. 14 hit %.2f intersection %.2f",
			speed, without[i].HitRatio, without[i].IntersectRatio, without[i].ReplyDropRatio,
			with[i].HitRatio, with[i].IntersectRatio)
	}

	slow, fast := without[0], without[len(without)-1]
	hitFall := slow.HitRatio - fast.HitRatio
	if hitFall < 0.20 {
		t.Errorf("Fig. 13 hit ratio falls %.2f from %v to %v m/s, want ≥ 0.20", hitFall, figSpeeds[0], figSpeeds[len(figSpeeds)-1])
	}
	if fall := slow.IntersectRatio - fast.IntersectRatio; fall >= hitFall/2 {
		t.Errorf("Fig. 13 intersection falls %.2f, want less than half the hit ratio's %.2f", fall, hitFall)
	}
	for i := 1; i < len(without); i++ {
		if without[i].ReplyDropRatio < without[i-1].ReplyDropRatio {
			t.Errorf("Fig. 13 reply drops fall from %.2f at %v m/s to %.2f at %v m/s",
				without[i-1].ReplyDropRatio, figSpeeds[i-1], without[i].ReplyDropRatio, figSpeeds[i])
		}
	}
	for i, r := range with {
		if gap := math.Abs(r.HitRatio - r.IntersectRatio); gap > 0.05 {
			t.Errorf("Fig. 14 at %v m/s: hit %.2f, intersection %.2f, gap above 0.05", figSpeeds[i], r.HitRatio, r.IntersectRatio)
		}
	}
	if lift := with[len(with)-1].HitRatio - fast.HitRatio; lift < 0.20 {
		t.Errorf("at %v m/s repair lifts hit by %.2f, want ≥ 0.20", figSpeeds[len(figSpeeds)-1], lift)
	}
}
