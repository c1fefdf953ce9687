package core

// The quantized path's collect buffer. A collect node buffers its records
// as raw bin codes, and once the scan has gathered them the subtree is
// grown in code space by exact.FinishCodes: node for node the tree the
// exact algorithm builds over the same codes widened to float64, its
// numeric thresholds midpoints between occupied codes, which translate
// floors back to codes.

// codeBuffer holds a collect node's records as raw bin codes, k per row,
// in arrival order, each row with the number of records it stands for: 1,
// or a bootstrap view's multiplicity (see storage.QuantMem).
type codeBuffer struct {
	k       int
	codes   []uint16
	labels  []int32
	weights []uint32
	records int64 // the sum of weights
}

func (b *codeBuffer) init(k int) { b.k = k }

// add appends one row standing for w records.
func (b *codeBuffer) add(codes []uint16, label int, w uint32) {
	b.codes = append(b.codes, codes...)
	b.labels = append(b.labels, int32(label))
	b.weights = append(b.weights, w)
	b.records += int64(w)
}

// appendFrom appends every record of o, preserving o's order. Merging
// per-worker shard buffers in worker-index order reproduces exactly the
// record order a one-worker pass would have buffered.
func (b *codeBuffer) appendFrom(o *codeBuffer) {
	b.codes = append(b.codes, o.codes...)
	b.labels = append(b.labels, o.labels...)
	b.weights = append(b.weights, o.weights...)
	b.records += o.records
}

// Len returns the number of buffered rows.
func (b *codeBuffer) Len() int { return len(b.labels) }

// countClasses adds the buffered records' class counts to t.
func (b *codeBuffer) countClasses(t []int) {
	for i, l := range b.labels {
		t[l] += int(b.weights[i])
	}
}

// bytes is the buffer's memory footprint, charged per record the rows stand
// for: 2 bytes per code plus the label.
func (b *codeBuffer) bytes() int64 { return b.records * (2*int64(b.k) + 4) }

// reset releases the records; a node's buffer is reset only when the node
// leaves the collect state for good.
func (b *codeBuffer) reset() {
	b.codes, b.labels, b.weights, b.records = nil, nil, nil, 0
}
