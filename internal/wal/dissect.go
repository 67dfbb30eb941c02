package wal

import (
	"errors"
	"fmt"

	"sdsm/internal/arena"
	"sdsm/internal/hlrc"
	"sdsm/internal/memory"
	"sdsm/internal/stable"
)

// The dissector turns raw stable.Records back into typed protocol
// objects, for every reader of a record payload but ReadLoggedDiffs.
// Recovery replays records it wrote itself and panics on damage it cannot
// explain, but the introspection tools (internal/logview, cmd/sdsminspect)
// read logs that crashes, torn writes or plain bugs may have mangled, so
// every failure here is a typed error, never a panic.

// Typed dissection errors. Callers branch with errors.Is.
var (
	// ErrUnknownKind marks a record whose kind byte names no protocol
	// record (a corrupted kind byte, or a log written by a newer layout).
	ErrUnknownKind = errors.New("wal: unknown record kind")
	// ErrCorruptPayload marks a record whose payload does not decode as
	// its kind demands (truncated, trailing garbage, or bit-flipped).
	ErrCorruptPayload = errors.New("wal: corrupt record payload")
)

// Kinds lists the defined record kinds in kind-byte order (kind bytes run
// 1..RecDiffBatch with 2 reserved; 0 is never written).
var Kinds = [...]stable.RecordKind{RecNotices, RecEvents, RecPage, RecDiffBatch}

// KindName names a record kind as the introspection tables print it.
func KindName(k stable.RecordKind) string {
	switch k {
	case RecNotices:
		return "notices"
	case RecEvents:
		return "events"
	case RecPage:
		return "page"
	case RecDiffBatch:
		return "diff-batch"
	default:
		return fmt.Sprintf("kind-%d", int(k))
	}
}

// PagePayload is the typed form of a RecPage record.
type PagePayload struct {
	Page memory.PageID
	Data []byte
}

// DiffBatchPayload is the typed form of a RecDiffBatch record: every
// diff of one (writer, interval) group.
type DiffBatchPayload struct {
	Writer int32 // -1: the log owner's own diffs
	Seq    int32 // writer interval the batch closes
	VTSum  int64 // closing interval's vector-time sum (own batches only)
	Diffs  []memory.Diff
}

// Dissected is one log record decoded into typed form. Exactly one of
// the payload fields is set, selected by Kind.
type Dissected struct {
	Kind stable.RecordKind
	Op   int32 // synchronization-operation index the record belongs to
	Wire int   // accounted on-disk size

	Notices   []hlrc.Notice      // RecNotices
	Events    []hlrc.UpdateEvent // RecEvents
	Page      *PagePayload       // RecPage
	DiffBatch *DiffBatchPayload  // RecDiffBatch
}

// A Dissector decodes the records of one log in turn and reuses its
// decode state across them: the Dissected it returns, with its Page and
// DiffBatch, is overwritten by its next call, and it cuts notice, page,
// event and diff lists and diff bodies from slabs it owns. A reader that
// walks a whole log (the replayer, the auditor, the volume dissection)
// keeps one per store, so a record costs a fraction of an allocation, not
// one for its value and one for each list and body in it. Each list and
// body is handed out once, so a reader may keep one (the replayer's
// notice store keeps the page lists). The zero Dissector is ready to
// use. It is not safe for concurrent use.
type Dissector struct {
	d       Dissected
	page    PagePayload
	batch   DiffBatchPayload
	notices arena.Slab[hlrc.Notice]
	pages   arena.Slab[memory.PageID]
	events  arena.Slab[hlrc.UpdateEvent]
	diffs   arena.Slab[memory.Diff]
	bodies  memory.Bodies
}

// Dissect decodes one record by its kind byte. It does not check the
// record's checksum (use stable.Record.Verify for that): a torn record
// usually fails both, but the two failures mean different things and the
// auditor reports them separately.
func (x *Dissector) Dissect(r stable.Record) (*Dissected, error) {
	x.d = Dissected{Kind: r.Kind, Op: r.Op, Wire: r.WireSize()}
	d := &x.d
	switch r.Kind {
	case RecNotices:
		ns, rest, err := hlrc.DecodeNotices(r.Data, &x.notices, &x.pages)
		if err != nil {
			return nil, fmt.Errorf("%w: notices at op %d: %v", ErrCorruptPayload, r.Op, err)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: notices at op %d: %d trailing bytes", ErrCorruptPayload, r.Op, len(rest))
		}
		d.Notices = ns
	case RecEvents:
		evs, err := decodeEvents(r.Data, &x.events)
		if err != nil {
			return nil, fmt.Errorf("%w: events at op %d: %v", ErrCorruptPayload, r.Op, err)
		}
		d.Events = evs
	case RecPage:
		page, data, err := decodePageRecord(r.Data)
		if err != nil {
			return nil, fmt.Errorf("%w: page at op %d: %v", ErrCorruptPayload, r.Op, err)
		}
		x.page = PagePayload{Page: page, Data: data}
		d.Page = &x.page
	case RecDiffBatch:
		writer, seq, vtSum, diffs, err := decodeDiffBatch(r.Data, &x.diffs, &x.bodies)
		if err != nil {
			return nil, fmt.Errorf("%w: diff batch at op %d: %v", ErrCorruptPayload, r.Op, err)
		}
		x.batch = DiffBatchPayload{Writer: writer, Seq: seq, VTSum: vtSum, Diffs: diffs}
		d.DiffBatch = &x.batch
	default:
		return nil, fmt.Errorf("%w: %d at op %d", ErrUnknownKind, int(r.Kind), r.Op)
	}
	return d, nil
}

// Summary renders the dissected record as one table line for
// sdsminspect's record dump.
func (d *Dissected) Summary() string {
	switch d.Kind {
	case RecNotices:
		pages := 0
		for _, n := range d.Notices {
			pages += len(n.Pages)
		}
		return fmt.Sprintf("%d notices covering %d pages", len(d.Notices), pages)
	case RecEvents:
		return fmt.Sprintf("%d update events", len(d.Events))
	case RecPage:
		return fmt.Sprintf("page %d copy (%d bytes)", d.Page.Page, len(d.Page.Data))
	case RecDiffBatch:
		who := "own"
		if d.DiffBatch.Writer >= 0 {
			who = fmt.Sprintf("writer %d", d.DiffBatch.Writer)
		}
		bytes := 0
		for _, df := range d.DiffBatch.Diffs {
			bytes += df.WireSize()
		}
		return fmt.Sprintf("%s diff batch of %d seq %d vtsum %d (%d bytes)",
			who, len(d.DiffBatch.Diffs), d.DiffBatch.Seq, d.DiffBatch.VTSum, bytes)
	default:
		return "?"
	}
}
