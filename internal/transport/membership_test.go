package transport

import (
	"fmt"
	"testing"

	"sdsm/internal/simtime"
)

// TestMembershipEventOrders drives the membership through every order of
// the events one victim of a 4-node run can produce — a fail-stop alone,
// or a partition: the crash, the burial with its heal time, each
// survivor adopting the burial epoch its obituary carries, and the
// victim's rejoin — and checks every decision for every node, and the cut
// of every link, after each step.
func TestMembershipEventOrders(t *testing.T) {
	const n = 4
	const crashAt, healAt = simtime.Time(7000), simtime.Time(12000)
	// The epochs the burial and the rejoin bump the cluster to, and the
	// one every node starts at, which the victim stamps until it rejoins.
	const birth, burial, rejoined = int64(1), int64(2), int64(3)

	type event struct {
		name string
		node int
	}
	type happened struct {
		crashed, buried, rejoined bool
		adopted                   [n]bool
	}
	check := func(t *testing.T, nw *Network, v int, h happened) {
		t.Helper()
		ms := nw.Members()
		for i := 0; i < n; i++ {
			at, crashed := ms.Crashed(i)
			if wantCrashed := i == v && h.crashed; crashed != wantCrashed || (crashed && at != crashAt) || (!crashed && at != 0) {
				t.Errorf("Crashed(%d) = %d, %v; want crashed %v at %d", i, at, crashed, wantCrashed, crashAt)
			}
			select {
			case <-ms.down[i]:
				if i != v || !h.crashed {
					t.Errorf("node %d's crash signal closed, but it has not crashed", i)
				}
			default:
				if i == v && h.crashed {
					t.Errorf("node %d crashed, but its crash signal is open", i)
				}
			}
			wantServing := i
			if i == v && h.crashed {
				wantServing = (v + 1) % n
			}
			if got := ms.Serving(i); got != wantServing {
				t.Errorf("Serving(%d) = %d, want %d", i, got, wantServing)
			}
			wantView := birth
			switch {
			case i == v && h.rejoined:
				wantView = rejoined
			case i != v && h.adopted[i]:
				wantView = burial
			}
			if got := ms.View(i); got != wantView {
				t.Errorf("View(%d) = %d, want %d", i, got, wantView)
			}
			wantBuried := int64(0)
			if i == v && h.buried {
				wantBuried = burial
			}
			// A message the victim stamped before its burial is stale
			// from the burial on; one stamped after its rejoin never is,
			// and nothing a survivor sends is.
			for _, c := range []struct {
				epoch int64
				stale bool
			}{{birth, wantBuried != 0}, {rejoined, false}} {
				if b, stale := ms.Stale(i, c.epoch); b != wantBuried || stale != c.stale {
					t.Errorf("Stale(%d, %d) = %d, %v; want %d, %v", i, c.epoch, b, stale, wantBuried, c.stale)
				}
			}
		}
		// Once buried, every link to or from the victim is cut over
		// [crash, heal), in both directions, rejoin or not; no other
		// link ever is.
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from == to {
					continue
				}
				for _, at := range []simtime.Time{crashAt - 1, crashAt, healAt - 1, healAt} {
					want := h.buried && (from == v || to == v) && at >= crashAt && at < healAt
					if got := ms.Cut(from, to, at); got != want {
						t.Errorf("Cut(%d, %d, %d) = %v, want %v", from, to, at, got, want)
					}
				}
			}
		}
	}

	for v := 0; v < n; v++ {
		// After the crash and the burial, the survivors' adoptions and
		// the rejoin may land in any order.
		var tail []event
		for s := 0; s < n; s++ {
			if s != v {
				tail = append(tail, event{"adopt", s})
			}
		}
		tail = append(tail, event{"rejoin", v})
		orders := [][]event{{{"crash", v}}}
		for _, p := range permutations(tail) {
			orders = append(orders, append([]event{{"crash", v}, {"bury", v}}, p...))
		}
		for _, order := range orders {
			name := fmt.Sprintf("victim%d/", v)
			for i, ev := range order {
				if i > 0 {
					name += ","
				}
				name += fmt.Sprintf("%s%d", ev.name, ev.node)
			}
			t.Run(name, func(t *testing.T) {
				nw := NewNetwork(n, simtime.CostModel{})
				ms := nw.Members()
				var h happened
				check(t, nw, v, h)
				for _, ev := range order {
					switch ev.name {
					case "crash":
						nw.MarkCrashed(v, crashAt)
						nw.MarkCrashed(v, crashAt+1) // only the first fail-stop counts
						h.crashed = true
					case "bury":
						if e := ms.Bury(v, healAt); e != burial {
							t.Fatalf("Bury(%d) = %d, want %d", v, e, burial)
						}
						h.buried = true
					case "adopt":
						if !ms.Adopt(ev.node, burial) || ms.Adopt(ev.node, burial) || ms.Adopt(ev.node, birth) {
							t.Fatalf("Adopt(%d, %d) does not advance the view exactly once", ev.node, burial)
						}
						h.adopted[ev.node] = true
					case "rejoin":
						if e := ms.Rejoin(v); e != rejoined {
							t.Fatalf("Rejoin(%d) = %d, want %d", v, e, rejoined)
						}
						h.rejoined = true
					}
					check(t, nw, v, h)
				}
			})
		}
	}
}

// permutations returns every order of evs.
func permutations[T any](evs []T) [][]T {
	if len(evs) <= 1 {
		return [][]T{append([]T(nil), evs...)}
	}
	var out [][]T
	for i := range evs {
		rest := append(append([]T(nil), evs[:i]...), evs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]T{evs[i]}, p...))
		}
	}
	return out
}
