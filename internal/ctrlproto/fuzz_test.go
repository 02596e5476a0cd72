package ctrlproto

import (
	"bytes"
	"reflect"
	"testing"
)

// decodeAll decodes frames from data until the first error and returns the
// messages with the number of bytes they took.
func decodeAll(data []byte) ([]Message, int) {
	c := NewConn(&bytesConn{r: bytes.NewReader(data)})
	var msgs []Message
	n := 0
	for {
		m, err := c.ReadMessage()
		if err != nil {
			return msgs, n
		}
		msgs = append(msgs, m)
		fr, _ := appendFrame(nil, m)
		n += len(fr)
	}
}

// FuzzReadMessage: arbitrary bytes never panic the decoder, and every frame
// it accepts re-encodes to exactly the bytes it was read from. Seeds (one
// frame of each type, and malformed headers) are under testdata/fuzz.
func FuzzReadMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(&bytesConn{r: bytes.NewReader(data)})
		off := 0
		for {
			m, err := c.ReadMessage()
			if err != nil {
				return
			}
			fr, err := appendFrame(nil, m)
			if err != nil {
				t.Fatalf("decoded %v does not re-encode: %v", m.Type(), err)
			}
			if off+len(fr) > len(data) || !bytes.Equal(fr, data[off:off+len(fr)]) {
				t.Fatalf("%v at offset %d re-encodes to %x", m.Type(), off, fr)
			}
			off += len(fr)
		}
	})
}

// FuzzBatchedFrames: the messages the fuzz input decodes to, pushed through
// the stream's batched writer, decode one frame at a time back to the same
// sequence. Every write carries whole frames, and a write past maxBatch
// carries exactly one.
func FuzzBatchedFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, _ := decodeAll(data)
		if len(msgs) == 0 {
			return
		}
		out := &bytesConn{r: bytes.NewReader(nil)}
		st := newStream(NewConn(out), len(msgs))
		for _, m := range msgs {
			if err := st.Enqueue(StreamKey{}, m); err != nil {
				t.Fatal(err)
			}
		}
		st.close()
		st.writeLoop() // drains what is queued, then returns
		got, n := decodeAll(out.w.Bytes())
		if n != out.w.Len() {
			t.Fatalf("decoded %d of %d written bytes", n, out.w.Len())
		}
		off := 0
		for _, size := range out.sizes {
			inWrite, n := decodeAll(out.w.Bytes()[off : off+size])
			if n != size {
				t.Fatalf("a %d-byte write splits a frame", size)
			}
			if size > maxBatch && len(inWrite) != 1 {
				t.Fatalf("a %d-byte write carries %d frames past the %d-byte cap", size, len(inWrite), maxBatch)
			}
			off += size
		}
		if !reflect.DeepEqual(got, msgs) {
			t.Fatalf("batched writer delivered %d messages, want the %d queued in order", len(got), len(msgs))
		}
	})
}
