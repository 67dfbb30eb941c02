package memory

// UndoLog is one home's undo history: every entry it keeps, in append
// order, and each page's entries chained oldest first. It has three parts:
// entry bytes cut back to back from 32 KiB chunks (bigChunk), one entry
// table, and per page the table indexes of its chain's ends. Nothing
// leaves the log but by Reset, so no chunk is kept reachable by an entry
// the log no longer holds. A nil *UndoLog cuts nothing: UndoOf and
// UndoFromTwin then make each entry on its own. An UndoLog is not safe
// for concurrent use: its owner serializes every call.
type UndoLog struct {
	bytes   chunks      // the entries' bytes
	entries []undoEntry // in append order
	chains  []undoChain // per page
}

// undoEntry is one table row: writer interval (writer, seq)'s entry, and
// next, 1 + the index of its page's next newer entry (0 for the newest).
type undoEntry struct {
	writer, seq, next int32
	u                 Undo
}

// undoChain holds 1 + the index of a page's oldest and newest entry, 0
// for a page with none.
type undoChain struct{ first, last int32 }

// NewUndoLog returns an empty log over pages pages.
func NewUndoLog(pages int) *UndoLog {
	return &UndoLog{chains: make([]undoChain, pages)}
}

// cut returns n fresh bytes with capacity n, cut from the log's chunks
// (chunks.cut), or made on their own for a nil log.
func (l *UndoLog) cut(n int) []byte {
	if l == nil {
		return make([]byte, n)
	}
	return l.bytes.cut(n)
}

// Add appends writer interval (writer, seq)'s entry u as page p's newest.
// An empty entry is not kept: it restores nothing.
func (l *UndoLog) Add(p PageID, writer, seq int32, u Undo) {
	if u.Empty() {
		return
	}
	l.entries = append(l.entries, undoEntry{writer: writer, seq: seq, u: u})
	i, c := int32(len(l.entries)), &l.chains[p]
	if c.last == 0 {
		c.first = i
	} else {
		l.entries[c.last-1].next = i
	}
	c.last = i
}

// Reset drops every entry, and with them the chunks and the table.
func (l *UndoLog) Reset() {
	clear(l.chains)
	l.bytes, l.entries = chunks{}, nil
}

// UndoIter is a cursor over one page's entries, oldest first:
//
//	for e := log.Entries(p); e.Valid(); e.Next() { e.Writer(), e.Seq(), e.Undo() }
type UndoIter struct {
	entries []undoEntry
	i       int32 // 1 + the current entry's index, 0 past the newest
}

// Entries returns a cursor on page p's oldest entry.
func (l *UndoLog) Entries(p PageID) UndoIter { return UndoIter{l.entries, l.chains[p].first} }

// Valid reports whether the cursor is on an entry (false past the newest).
func (it UndoIter) Valid() bool { return it.i != 0 }

// Writer is the current entry's writer.
func (it UndoIter) Writer() int32 { return it.entries[it.i-1].writer }

// Seq is the current entry's interval.
func (it UndoIter) Seq() int32 { return it.entries[it.i-1].seq }

// Undo is the current entry: restoring it removes the interval's update.
func (it UndoIter) Undo() Undo { return it.entries[it.i-1].u }

// Next moves the cursor to the page's next newer entry.
func (it *UndoIter) Next() { it.i = it.entries[it.i-1].next }
