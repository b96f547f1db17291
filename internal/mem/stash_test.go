package mem

import (
	"math/rand"
	"testing"

	"hostsim/internal/cpumodel"
)

// TestStashMatchesMaterialisedSlice runs a random Prefill/Pop/Restock/
// emergency-refill/Free sequence twice: once through Stash, once through
// the plain page slice it replaces (Alloc to prefill, AppendAlloc to
// restock, pop from the tail). Every popped page, its order and node, the
// stash length, Stats(), InUse() and the charged cycles must agree.
// Re-prefilling a core after frees exercises the stash's pageset part.
func TestStashMatchesMaterialisedSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, b := newAlloc(), newAlloc()
		a.SetPagesetCap(64)
		b.SetPagesetCap(64)
		var cha, chb tally
		rng := rand.New(rand.NewSource(seed))
		cores := a.spec.NumCores()
		stashes := map[int]*Stash{}
		refs := map[int][]Page{}
		var held [][]Page // popped pages not yet freed, for the reference run

		for step := 0; step < 3000; step++ {
			core := rng.Intn(4) * (cores / 4) // spread over the nodes
			s, ok := stashes[core]
			switch r := rng.Intn(12); {
			case !ok || r == 11: // (re)post the ring, retiring any old stash
				n := rng.Intn(300)
				st := a.Prefill(core, n)
				stashes[core] = &st
				refs[core] = b.Alloc(cpumodel.Discard{}, core, n)
			case r < 5: // DMA pop, refilling first if the stash ran dry
				need := 1 + rng.Intn(40)
				if short := need - s.Len(); short > 0 {
					a.Restock(cpumodel.Discard{}, core, short, s)
					refs[core] = append(refs[core], b.Alloc(cpumodel.Discard{}, core, short)...)
				}
				got := make([]Page, need)
				s.Pop(got)
				ref := refs[core]
				want := append([]Page(nil), ref[len(ref)-need:]...)
				refs[core] = ref[:len(ref)-need]
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d step %d: popped[%d] = %+v, slice gives %+v", seed, step, i, got[i], want[i])
					}
				}
				held = append(held, got)
			case r < 8: // replenish
				n := rng.Intn(60)
				a.Restock(&cha, core, n, s)
				refs[core] = b.AppendAlloc(&chb, core, n, refs[core])
			case r < 11: // the consumer frees popped pages, possibly remotely
				if len(held) == 0 {
					continue
				}
				i := rng.Intn(len(held))
				a.Free(&cha, core, held[i])
				b.Free(&chb, core, held[i])
				held = append(held[:i], held[i+1:]...)
			}
			if got, want := stashes[core].Len(), len(refs[core]); got != want {
				t.Fatalf("seed %d step %d: stash Len %d, slice %d", seed, step, got, want)
			}
			if a.Stats() != b.Stats() || a.InUse() != b.InUse() || cha != chb {
				t.Fatalf("seed %d step %d: stash allocator %+v inUse %d, slice allocator %+v inUse %d",
					seed, step, a.Stats(), a.InUse(), b.Stats(), b.InUse())
			}
		}
		// Drain every stash: the remaining pages must match too.
		for core, s := range stashes {
			got := make([]Page, s.Len())
			s.Pop(got)
			for i, p := range refs[core] {
				if got[i] != p {
					t.Fatalf("seed %d: drained core %d [%d] = %+v, slice gives %+v", seed, core, i, got[i], p)
				}
			}
		}
	}
}

func TestPrefillMaterialisesOnlyThePageset(t *testing.T) {
	a := newAlloc()
	a.Free(cpumodel.Discard{}, 0, a.Alloc(cpumodel.Discard{}, 0, 5))
	s := a.Prefill(0, 4096)
	if len(s.boot) != 5 || len(s.top) != 0 || s.Len() != 4096 {
		t.Errorf("boot %d top %d Len %d, want 5, 0, 4096", len(s.boot), len(s.top), s.Len())
	}
	if st := a.Stats(); st.AllocPCP != 5 || st.AllocGlobal != 5+4091 || a.InUse() != 4096 {
		t.Errorf("stats %+v inUse %d", st, a.InUse())
	}
}

func TestPopPastStashPanics(t *testing.T) {
	a := newAlloc()
	s := a.Prefill(0, 2)
	defer func() {
		if recover() == nil {
			t.Error("popping 3 pages from a stash of 2 should panic")
		}
	}()
	s.Pop(make([]Page, 3))
}
