package cache

import (
	"math/rand"
	"testing"

	"hostsim/internal/units"
)

// mapDCA is the reference DCA: per-set LRU slices plus a page -> set map.
// It is the straightforward form of the model that DCA's flat slot array
// must reproduce exactly, evictions and rng draws included.
type mapDCA struct {
	numSets, ways int
	hazard        float64
	rng           *rand.Rand
	sets          [][]PageID
	resident      map[PageID]int
	stats         DCAStats
}

func (d *mapDCA) Insert(p PageID) {
	s := setOfN(p, d.numSets)
	set := d.sets[s]
	if _, ok := d.resident[p]; ok {
		for i, q := range set {
			if q == p {
				copy(set[i:], set[i+1:])
				set[len(set)-1] = p
				break
			}
		}
		return
	}
	d.stats.Inserts++
	if len(set) >= d.ways {
		delete(d.resident, set[0])
		set = append(set[:0], set[1:]...)
		d.stats.Evictions++
	}
	d.sets[s] = append(set, p)
	d.resident[p] = s
	if d.hazard > 0 && len(d.resident) > 1 && d.rng.Float64() < d.hazard {
		for attempt := 0; attempt < 4; attempt++ {
			s := d.rng.Intn(d.numSets)
			set := d.sets[s]
			if len(set) == 0 || (set[0] == p && len(set) == 1) {
				continue
			}
			i := 0
			if set[0] == p {
				i = 1
			}
			delete(d.resident, set[i])
			d.sets[s] = append(set[:i], set[i+1:]...)
			d.stats.Evictions++
			break
		}
	}
}

func (d *mapDCA) Probe(p PageID) bool {
	_, ok := d.resident[p]
	if ok {
		d.stats.Hits++
	} else {
		d.stats.Misses++
	}
	return ok
}

func (d *mapDCA) Drop(p PageID) {
	s, ok := d.resident[p]
	if !ok {
		return
	}
	for i, q := range d.sets[s] {
		if q == p {
			d.sets[s] = append(d.sets[s][:i], d.sets[s][i+1:]...)
			break
		}
	}
	delete(d.resident, p)
	d.stats.Drops++
}

// setOfN is DCA.setOf for a given set count.
func setOfN(p PageID, numSets int) int {
	return (&DCA{numSets: numSets}).setOf(p)
}

// TestDCAMatchesMapOracle drives the DCA and the map-based oracle with the
// same random Insert/Probe/Contains/Drop sequence and twin rng seeds. Every
// answer, the stats, the resident count, each page's residency and the
// next rng value must agree.
func TestDCAMatchesMapOracle(t *testing.T) {
	for _, tc := range []struct {
		pages, ways int
		hazard      float64
		idSpace     int64
	}{
		{64, 8, 0, 200},
		{64, 8, 0.3, 200},
		{768, 8, 0.9, 4000},
		{2, 2, 0.5, 6},
		{30, 4, 1, 90},
		{16, 1, 0.2, 40},
	} {
		const seed = 99
		d := NewDCA(DCAConfig{
			Capacity: units.Bytes(tc.pages) * 4 * units.KB, PageSize: 4 * units.KB,
			Ways: tc.ways, Rand: rand.New(rand.NewSource(seed)),
		})
		d.SetHazard(tc.hazard)
		o := &mapDCA{
			numSets: d.numSets, ways: d.ways, hazard: tc.hazard,
			rng:      rand.New(rand.NewSource(seed)),
			sets:     make([][]PageID, d.numSets),
			resident: map[PageID]int{},
		}
		ops := rand.New(rand.NewSource(int64(tc.pages*1000 + tc.ways)))
		for step := 0; step < 20000; step++ {
			p := PageID(ops.Int63n(tc.idSpace) + 1)
			switch r := ops.Intn(10); {
			case r < 5:
				d.Insert(p)
				o.Insert(p)
			case r < 7:
				if got, want := d.Probe(p), o.Probe(p); got != want {
					t.Fatalf("%+v step %d: Probe(%d) = %v, oracle %v", tc, step, p, got, want)
				}
			case r < 8:
				if _, want := o.resident[p]; d.Contains(p) != want {
					t.Fatalf("%+v step %d: Contains(%d) = %v, oracle %v", tc, step, p, !want, want)
				}
			default:
				d.Drop(p)
				o.Drop(p)
			}
			if d.Stats() != o.stats || d.Resident() != len(o.resident) {
				t.Fatalf("%+v step %d: stats %+v resident %d, oracle %+v resident %d",
					tc, step, d.Stats(), d.Resident(), o.stats, len(o.resident))
			}
		}
		for id := PageID(1); id <= PageID(tc.idSpace); id++ {
			if _, want := o.resident[id]; d.Contains(id) != want {
				t.Errorf("%+v: final residency of page %d = %v, oracle %v", tc, id, !want, want)
			}
		}
		if got, want := d.rng.Int63(), o.rng.Int63(); got != want {
			t.Errorf("%+v: next rng value %d, oracle %d: the draw sequences diverged", tc, got, want)
		}
	}
}
