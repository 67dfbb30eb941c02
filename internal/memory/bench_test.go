package memory

import (
	"math/rand"
	"testing"
)

func benchPage(density float64) (twin, cur []byte) {
	rng := rand.New(rand.NewSource(42))
	twin = make([]byte, 4096)
	rng.Read(twin)
	cur = make([]byte, 4096)
	copy(cur, twin)
	mods := int(float64(len(cur)) * density)
	for i := 0; i < mods; i++ {
		cur[rng.Intn(len(cur))] ^= 0xff
	}
	return twin, cur
}

// The release path diffs through the writer's page table.
func BenchmarkMakeDiffSparse(b *testing.B) {
	pt := twinnedTable(benchPage(0.02))
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = pt.MakeDiff(0)
	}
}

func BenchmarkMakeDiffDense(b *testing.B) {
	pt := twinnedTable(benchPage(0.5))
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = pt.MakeDiff(0)
	}
}

func BenchmarkApplyDiff(b *testing.B) {
	twin, cur := benchPage(0.1)
	d := MakeDiff(0, twin, cur)
	dst := make([]byte, 4096)
	copy(dst, twin)
	b.SetBytes(int64(d.DataBytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Apply(dst)
	}
}

func BenchmarkDiffEncodeDecode(b *testing.B) {
	twin, cur := benchPage(0.1)
	d := MakeDiff(0, twin, cur)
	buf := d.Encode(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeDiff(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshot times a checkpoint image of 256 home frames of 4 KB:
// all zero (a checkpoint at op 0, where each frame is tested and none
// copied), and all written (each frame copied into the image).
func BenchmarkSnapshot(b *testing.B) {
	const pages, psz = 256, 4096
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = PageID(i)
	}
	for _, written := range []bool{false, true} {
		name := "zero"
		if written {
			name = "written"
		}
		b.Run(name, func(b *testing.B) {
			pt := NewPageTable(pages, psz)
			pt.AllocFrames(ids)
			if written {
				rng := rand.New(rand.NewSource(1))
				for _, id := range ids {
					rng.Read(pt.Frame(id))
				}
			}
			b.SetBytes(pages * psz)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pt.Snapshot(nil)
			}
		})
	}
}
