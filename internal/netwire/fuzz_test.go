package netwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzWireDecode throws corrupted bytes at the two decoding surfaces a
// hostile peer can reach — the frame reader and the payload decoder —
// and demands they fail closed: an error (or a clean sticky zero-value
// state), never a panic and never an allocation beyond MaxFrame.
func FuzzWireDecode(f *testing.F) {
	// A well-formed frame holding a well-formed payload.
	payload := AppendUvarint(nil, 42)
	payload = AppendString(payload, "alpha")
	payload = append(payload, 7)
	payload = AppendBytes(payload, []byte{1, 2, 3})
	var good bytes.Buffer
	w := bufio.NewWriter(&good)
	if err := WriteFrame(w, payload); err != nil {
		f.Fatal(err)
	}
	w.Flush()
	f.Add(good.Bytes())
	// A truncated frame: length prefix promises more than follows.
	f.Add(good.Bytes()[:len(good.Bytes())-2])
	// A length prefix beyond MaxFrame: must error before allocating.
	f.Add(binary.AppendUvarint(nil, MaxFrame+1))
	// A non-minimal / overlong uvarint (11 continuation bytes).
	f.Add(bytes.Repeat([]byte{0xff}, 11))
	// A string length prefix pointing past the buffer.
	f.Add(append(binary.AppendUvarint(nil, 3), binary.AppendUvarint(nil, 1<<40)...))
	// The node protocol's record sequences run to the end of the body with
	// no count in front (opProbe, opRegister: id, port, node), so only the
	// decoder's sticky error tells a whole batch from one cut mid-record.
	records := AppendUvarint(AppendString(AppendUvarint(nil, 7), "alpha"), 3)
	records = AppendUvarint(AppendString(AppendUvarint(records, 8), "beta"), 40)
	f.Add(records)
	f.Add(records[:len(records)-3])
	f.Add([]byte{})
	f.Add([]byte{0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame layer: ReadFrame either errors or returns a payload no
		// larger than MaxFrame, and a returned payload must survive a
		// write/read round trip unchanged.
		r := bufio.NewReader(bytes.NewReader(data))
		frame, err := ReadFrame(r, nil)
		if err == nil {
			if len(frame) > MaxFrame {
				t.Fatalf("ReadFrame returned %d bytes, above MaxFrame", len(frame))
			}
			var rt bytes.Buffer
			w := bufio.NewWriter(&rt)
			if err := WriteFrame(w, frame); err != nil {
				t.Fatalf("re-encode of accepted frame failed: %v", err)
			}
			w.Flush()
			back, err := ReadFrame(bufio.NewReader(&rt), nil)
			if err != nil || !bytes.Equal(back, frame) {
				t.Fatalf("frame round trip: err=%v got %d bytes want %d", err, len(back), len(frame))
			}
		}

		// Payload layer: walk the decoder over the raw bytes with every
		// read primitive. The walk must terminate (each step consumes
		// input or trips the sticky error) and never panic.
		d := NewDec(data)
		for i := 0; d.Err() == nil && d.Len() > 0; i++ {
			switch i % 4 {
			case 0:
				d.Uvarint()
			case 1:
				d.Byte()
			case 2:
				if b := d.Bytes(); len(b) > len(data) {
					t.Fatalf("Bytes returned %d bytes from a %d-byte input", len(b), len(data))
				}
			case 3:
				if s := d.String(); len(s) > len(data) {
					t.Fatalf("String returned %d bytes from a %d-byte input", len(s), len(data))
				}
			}
		}
		// After a decode error the state is sticky and fails closed:
		// every further read is a zero value, not garbage.
		if d.Err() != nil {
			if v := d.Uvarint(); v != 0 {
				t.Fatalf("Uvarint after error = %d, want 0", v)
			}
			if b := d.Byte(); b != 0 {
				t.Fatalf("Byte after error = %d, want 0", b)
			}
			if b := d.Bytes(); len(b) != 0 {
				t.Fatalf("Bytes after error returned %d bytes", len(b))
			}
		}
	})
}
