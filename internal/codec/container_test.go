package codec

import (
	"bytes"
	"io"
	"testing"

	"burstlink/internal/units"
)

// readAll drains the stream into a slice.
func readAll(sr *StreamReader) ([]Packet, error) {
	var out []Packet
	for {
		p, err := sr.ReadPacket()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
}

func TestContainerRoundTrip(t *testing.T) {
	w, h := 64, 48
	enc, _ := NewEncoder(w, h, DefaultEncoderConfig())
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	var originals []Packet
	for i := 0; i < 6; i++ {
		f := gradientFrame(w, h, i)
		f.Seq = i
		pkt, _, err := enc.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.WritePacket(pkt); err != nil {
			t.Fatal(err)
		}
		originals = append(originals, pkt)
	}
	if sw.Packets() != 6 {
		t.Fatalf("packets = %d", sw.Packets())
	}
	if sw.BytesWritten() != units.ByteSize(buf.Len()) {
		t.Fatalf("byte accounting %d vs %d", sw.BytesWritten(), buf.Len())
	}

	sr, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(originals) {
		t.Fatalf("read %d packets", len(got))
	}
	dec := NewDecoder()
	for i, p := range got {
		if p.Type != originals[i].Type || p.Seq != originals[i].Seq || !bytes.Equal(p.Data, originals[i].Data) {
			t.Fatalf("packet %d differs after round trip", i)
		}
		if _, err := dec.Decode(p); err != nil {
			t.Fatalf("packet %d not decodable: %v", i, err)
		}
	}
}

func TestContainerBadMagic(t *testing.T) {
	if _, err := NewStreamReader(bytes.NewReader([]byte("NOTAVIDEO"))); err == nil {
		t.Fatal("bad magic should fail")
	}
	if _, err := NewStreamReader(bytes.NewReader([]byte("BL"))); err == nil {
		t.Fatal("short magic should fail")
	}
}

func TestContainerTruncation(t *testing.T) {
	enc, _ := NewEncoder(64, 48, DefaultEncoderConfig())
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	pkt, _, _ := enc.Encode(gradientFrame(64, 48, 0))
	sw.WritePacket(pkt)
	full := buf.Bytes()

	// Truncate mid-payload: the reader must error, not return junk.
	sr, err := NewStreamReader(bytes.NewReader(full[:len(full)-5]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.ReadPacket(); err == nil {
		t.Fatal("truncated payload should fail")
	}
}

func TestContainerCleanEOF(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	enc, _ := NewEncoder(64, 48, DefaultEncoderConfig())
	pkt, _, _ := enc.Encode(gradientFrame(64, 48, 0))
	sw.WritePacket(pkt)
	sr, _ := NewStreamReader(&buf)
	if _, err := sr.ReadPacket(); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.ReadPacket(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestContainerRejectsBadType(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(streamMagic)
	buf.Write([]byte{0x7F}) // type 127: invalid
	sr, err := NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.ReadPacket(); err == nil {
		t.Fatal("bad type should fail")
	}
}
