package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"burstlink/internal/units"
)

// A minimal stream container so encoded video can be persisted and
// replayed: a magic header followed by length-prefixed packets
// (type, display sequence, payload length as unsigned varints, then the
// payload bytes). This is the on-disk/bitstream counterpart of the
// encoded-frame buffering stage (§2.4's "for video playback, the
// application reads the frames from storage devices").

// streamMagic identifies the container format.
var streamMagic = []byte("BLKV1\x00")

// StreamWriter serializes packets to an io.Writer.
type StreamWriter struct {
	w       io.Writer
	started bool
	packets int
	bytes   units.ByteSize
}

// NewStreamWriter wraps w.
func NewStreamWriter(w io.Writer) *StreamWriter { return &StreamWriter{w: w} }

// WritePacket appends one encoded frame to the stream.
func (sw *StreamWriter) WritePacket(p Packet) error {
	if !sw.started {
		if _, err := sw.w.Write(streamMagic); err != nil {
			return err
		}
		sw.started = true
		sw.bytes += units.ByteSize(len(streamMagic))
	}
	var hdr [3 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(p.Type))
	n += binary.PutUvarint(hdr[n:], uint64(p.Seq))
	n += binary.PutUvarint(hdr[n:], uint64(len(p.Data)))
	if _, err := sw.w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := sw.w.Write(p.Data); err != nil {
		return err
	}
	sw.packets++
	sw.bytes += units.ByteSize(n + len(p.Data))
	return nil
}

// Packets returns how many packets were written.
func (sw *StreamWriter) Packets() int { return sw.packets }

// BytesWritten returns the container size so far.
func (sw *StreamWriter) BytesWritten() units.ByteSize { return sw.bytes }

// StreamReader deserializes packets from an io.Reader.
type StreamReader struct {
	r *bufio.Reader
}

// NewStreamReader wraps r and validates the magic header.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(streamMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("codec: reading stream magic: %w", err)
	}
	for i, b := range streamMagic {
		if magic[i] != b {
			return nil, fmt.Errorf("codec: not a BLKV1 stream")
		}
	}
	return &StreamReader{r: br}, nil
}

// ReadPacket returns the next packet, or io.EOF at a clean end of stream.
func (sr *StreamReader) ReadPacket() (Packet, error) {
	tRaw, err := binary.ReadUvarint(sr.r)
	if err != nil {
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("codec: packet header: %w", err)
	}
	if tRaw > uint64(BFrame) {
		return Packet{}, fmt.Errorf("codec: bad packet type %d", tRaw)
	}
	seq, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return Packet{}, fmt.Errorf("codec: packet seq: %w", err)
	}
	size, err := binary.ReadUvarint(sr.r)
	if err != nil {
		return Packet{}, fmt.Errorf("codec: packet size: %w", err)
	}
	if size > 1<<30 {
		return Packet{}, fmt.Errorf("codec: implausible packet size %d", size)
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(sr.r, data); err != nil {
		return Packet{}, fmt.Errorf("codec: packet body: %w", err)
	}
	return Packet{Type: FrameType(tRaw), Seq: int(seq), Data: data}, nil
}
