package tcp_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/racedetect"
	"sdsm/internal/transport/tcp"
	"sdsm/internal/vclock"
)

// The protocol's hot payloads as a FrameReader decodes them: through the
// decode state it keeps for its lifetime, so each value is cut from a
// slab block of its own kind (DESIGN.md §2.8).

// wirePayload is what the tests need of a payload: its encoding.
type wirePayload interface{ AppendWire([]byte) []byte }

// Generators of the kv cell's hot payloads, numbered so that no two
// frames of a stream decode to the same bytes: a value handed out twice
// reads back as the later frame's.
func genGrant(i int) any {
	return &hlrc.LockGrant{VT: vclock.VC{int32(i), 4, 7, 2},
		Notices: []hlrc.Notice{{Proc: 1, Seq: int32(i), Pages: []memory.PageID{memory.PageID(i)}}}}
}

func genRelease(i int) any {
	return &hlrc.LockRelease{Lock: int32(i), VT: vclock.VC{9, int32(i), 7, 2},
		Notices: []hlrc.Notice{{Proc: 2, Seq: int32(i), Pages: []memory.PageID{3}}}}
}

func genUpdate(i int) any {
	d := kvDiff()
	enc := d.Encode(nil)
	enc[len(enc)-1] = byte(i) // the run's last byte
	d, _, _ = memory.DecodeDiff(enc)
	return &hlrc.DiffUpdate{Writer: 2, Seq: int32(i), Diffs: []memory.Diff{d}}
}

// stream encodes the frames of payloads back to back.
func stream(t testing.TB, payloads []any) []byte {
	t.Helper()
	var b []byte
	for i, p := range payloads {
		var err error
		if b, err = tcp.AppendFrame(b, &tcp.Frame{Type: 1, To: 1, Kind: 1, Seq: int64(i), Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func generate(n int, gen func(int) any) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = gen(i)
	}
	return out
}

// parts returns the address of every part of a decoded payload that was
// cut for it: the struct, its clock, notice list, page lists, diff list
// and diff bodies.
func parts(p any) []uintptr {
	addr := func(v any) uintptr { return reflect.ValueOf(v).Pointer() }
	out := []uintptr{addr(p)}
	notices := func(ns []hlrc.Notice) {
		out = append(out, addr(ns))
		for _, n := range ns {
			out = append(out, addr(n.Pages))
		}
	}
	switch m := p.(type) {
	case *hlrc.LockGrant:
		out = append(out, addr(m.VT))
		notices(m.Notices)
	case *hlrc.LockRelease:
		out = append(out, addr(m.VT))
		notices(m.Notices)
	case *hlrc.DiffUpdate:
		out = append(out, addr(m.Diffs))
		for _, d := range m.Diffs {
			r := d.Runs()
			out = append(out, addr(r.Data()))
		}
	}
	return out
}

// TestReaderAllocations pins what one FrameReader's decodes cost the
// heap, a batch of 64 frames at a time since a payload costs a fraction
// of an allocation: its struct, clock, notice list, page list, diff list
// and diff body are cut from 512-byte blocks of their own kind, and the
// reader reuses its frame and body buffer. Every decoded value and every
// part of one is distinct from all others, holds what its frame carried
// after the frames read after it, and can be appended to without reaching
// the value cut after it. (A stateless DecodeFrame costs 4, 4 and 3
// objects a payload: TestDecodeFrameAllocations.)
func TestReaderAllocations(t *testing.T) {
	const batch = 64
	cases := []struct {
		name string
		gen  func(int) any
		want float64
		what string
	}{
		{"LockGrant", genGrant, 14, "a block holds 9 grants, 32 four-entry clocks, 16 notice lists or 128 one-page lists: 7.1 + 2 + 4 + 0.5"},
		{"LockRelease", genRelease, 14, "as LockGrant: 7.1 + 2 + 4 + 0.5"},
		{"DiffUpdate", genUpdate, 18, "a block holds 12 updates, 16 one-diff lists or 8 64-byte bodies: 5.3 + 4 + 8"},
	}
	for _, c := range cases {
		payloads := generate(batch, c.gen)
		b := stream(t, payloads)
		src := bytes.NewReader(b)
		fr := tcp.NewFrameReader(src, 0)

		// Distinct values that keep what their frames carried.
		var got []any
		seen := map[uintptr]int{}
		for round := 0; round < 3; round++ {
			src.Reset(b)
			for i := range batch {
				var f tcp.Frame
				if err := fr.ReadFrame(&f); err != nil {
					t.Fatalf("%s %d: %v", c.name, i, err)
				}
				for _, a := range parts(f.Payload) {
					if j, dup := seen[a]; dup {
						t.Fatalf("%s: frame %d shares a part with frame %d", c.name, len(got), j)
					}
					seen[a] = len(got)
				}
				got = append(got, f.Payload)
			}
		}
		check := func(what string) {
			t.Helper()
			for i, p := range got {
				want := payloads[i%batch].(wirePayload).AppendWire(nil)
				if have := p.(wirePayload).AppendWire(nil); !bytes.Equal(have, want) {
					t.Fatalf("%s: frame %d %s:\nhave %x\nwant %x", c.name, i, what, have, want)
				}
			}
		}
		check("reads back changed after the frames read after it")

		// Appending to a value's lists reallocates instead of writing the
		// value cut after it.
		for _, p := range got {
			switch m := p.(type) {
			case *hlrc.LockGrant:
				_ = append(m.VT, -1)
				_ = append(m.Notices, hlrc.Notice{Proc: -1})
				_ = append(m.Notices[0].Pages, 1<<30)
			case *hlrc.LockRelease:
				_ = append(m.VT, -1)
				_ = append(m.Notices, hlrc.Notice{Proc: -1})
				_ = append(m.Notices[0].Pages, 1<<30)
			case *hlrc.DiffUpdate:
				_ = append(m.Diffs, memory.Diff{Page: 1 << 30})
			}
		}
		check("changed when the value before it was appended to")

		if racedetect.Enabled {
			continue // allocation counts are not meaningful under -race
		}
		var f tcp.Frame
		ops := func() {
			src.Reset(b)
			for range batch {
				if err := fr.ReadFrame(&f); err != nil {
					t.Fatal(err)
				}
			}
		}
		if allocs := testing.AllocsPerRun(20, ops); allocs > c.want {
			t.Errorf("%s: %v allocs per %d frames, want <= %v (%s)", c.name, allocs, batch, c.want, c.what)
		}
	}
}

// TestReaderHandoff decodes a mixed stream on one goroutine and hands
// each payload to another, which checks it while the reader fills the
// values after it in the same blocks, as a connection's reader hands
// messages to a node's service loop. A value is written only before it
// is handed off, so make tier2 runs this under -race ten times: a decode
// that wrote a value already handed off races with the check.
func TestReaderHandoff(t *testing.T) {
	gens := []func(int) any{genGrant, genRelease, genUpdate}
	payloads := make([]any, 600)
	for i := range payloads {
		payloads[i] = gens[i%len(gens)](i)
	}
	fr := tcp.NewFrameReader(bytes.NewReader(stream(t, payloads)), 0)
	ch := make(chan any, 8)
	done := make(chan error)
	go func() {
		var err error
		i := 0
		for p := range ch {
			want := payloads[i].(wirePayload).AppendWire(nil)
			if have := p.(wirePayload).AppendWire(nil); err == nil && !bytes.Equal(have, want) {
				err = fmt.Errorf("payload %d read back as %x, sent %x", i, have, want)
			}
			i++
		}
		done <- err
	}()
	for range payloads {
		var f tcp.Frame
		if err := fr.ReadFrame(&f); err != nil {
			t.Fatal(err)
		}
		ch <- f.Payload
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
