package faults_test

import (
	"math"
	"math/rand"
	"testing"

	"probquorum/internal/faults"
	"probquorum/internal/sim"
)

// An episode is eight fuzz bytes: kind (mod 8, so 0 and 7 are unknown kinds),
// start and duration in quarter seconds (signed), the form (odd: explicit
// Groups/Nodes from the two id bytes; the byte is also Parts), two signed node
// ids, a signed Count, and one byte of intensity (Prob, MaxDelay, Radius).
const episodeBytes = 8

func decodeEpisodes(data []byte) []faults.Episode {
	var eps []faults.Episode
	for ; len(data) >= episodeBytes; data = data[episodeBytes:] {
		s := func(i int) int { return int(int8(data[i])) }
		ep := faults.Episode{
			Kind: faults.Kind(data[0] % 8), Start: float64(s(1)) / 4, Duration: float64(s(2)) / 4,
			Parts: s(3), Count: s(6),
			Prob: float64(data[7]) / 255, MaxDelay: float64(data[7]) / 100, Radius: 2 * float64(data[7]),
		}
		if data[3]%2 == 1 {
			ep.Groups = [][]int{{s(4)}, {s(5)}}
			ep.Nodes = []int{s(4), s(5)}
		}
		eps = append(eps, ep)
	}
	return eps
}

// encodeEpisode is decodeEpisodes' inverse as far as the bytes reach.
func encodeEpisode(ep faults.Episode) []byte {
	quarter := func(secs float64) byte { return byte(int8(secs * 4)) }
	b := []byte{byte(ep.Kind), quarter(ep.Start), quarter(ep.Duration), byte(ep.Parts) &^ 1, 0, 0,
		byte(ep.Count), byte(max(ep.Radius/2, ep.Prob*255))}
	if ids := append(flatten(ep.Groups), ep.Nodes...); len(ids) > 0 {
		b[3] |= 1
		b[4], b[5] = byte(ids[0]), byte(ids[len(ids)-1])
	}
	return b
}

func flatten(groups [][]int) []int {
	var ids []int
	for _, g := range groups {
		ids = append(ids, g...)
	}
	return ids
}

// FuzzSchedule: no list of episodes — overlapping, zero-length, negative,
// naming nodes that do not exist, of unknown kind — panics the injector or the
// traffic running under it, and once the last episode has ended nothing is
// still in force.
func FuzzSchedule(f *testing.F) {
	// The three inputs that used to die with an index out of range.
	f.Add(encodeEpisode(faults.Episode{Kind: faults.Partition, Duration: 10, Groups: [][]int{{0, 99}}}))
	f.Add(encodeEpisode(faults.Episode{Kind: faults.Partition, Start: 20, Duration: 5, Groups: [][]int{{-1}}}))
	f.Add(encodeEpisode(faults.Episode{Kind: faults.Jam, Start: 20, Duration: 5, Nodes: []int{99}, Radius: 10}))
	var drawn []byte
	for _, ep := range faults.RandomSchedule(rand.New(rand.NewSource(1)), faults.ScheduleConfig{
		HorizonSecs: 30, Episodes: 6, Severity: 0.7, N: 20,
	}) {
		drawn = append(drawn, encodeEpisode(ep)...)
	}
	f.Add(drawn)

	f.Fuzz(func(t *testing.T, data []byte) {
		eps := decodeEpisodes(data)
		e := sim.NewEngine(1)
		net := lineNet(e, 20)
		inj := faults.New(net)
		end := 0.0
		for _, ep := range eps {
			end = math.Max(end, ep.Start+math.Max(ep.Duration, 0))
		}
		inj.Schedule(eps)
		// Traffic along the whole line, so whatever is in force sees frames.
		sim.NewTicker(e, 0, 0.5, func() {
			for from := 0; from+1 < net.N(); from++ {
				send(net, from, from+1)
			}
		})
		e.Run(end + 1)
		if inj.InForce() {
			t.Fatalf("a fault is still in force at t=%.2f, after every episode ended by t=%.2f: %+v", e.Now(), end, eps)
		}
	})
}
