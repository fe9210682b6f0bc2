// Command blkv is a standalone tool for the repository's video codec: it
// encodes synthetic test footage into the BLKV1 container, inspects
// streams, and decodes them (optionally dumping raw RGB frames). It
// exists so the codec substrate can be exercised and inspected outside
// the simulators.
//
// Usage:
//
//	blkv encode -o stream.blkv [-w 320] [-h 180] [-frames 60] [-q 50] [-b 2]
//	blkv info   -i stream.blkv
//	blkv decode -i stream.blkv [-raw frames.rgb]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"burstlink/internal/codec"
	"burstlink/internal/units"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "encode":
		err = encodeCmd(os.Args[2:])
	case "info":
		err = infoCmd(os.Args[2:])
	case "decode":
		err = decodeCmd(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "blkv:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: blkv <encode|info|decode> [flags]

  encode  -o FILE [-w W] [-h H] [-frames N] [-q QUALITY] [-b BPERIOD] [-bitrate MBPS]
  info    -i FILE
  decode  -i FILE [-raw FILE]`)
}

// synthFrame draws moving synthetic content.
func synthFrame(w, h, seq int) *codec.Frame {
	f := codec.NewFrame(w, h)
	f.Seq = seq
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			f.Planes[0][i] = byte((x*5 + seq*2) & 0xFF)
			f.Planes[1][i] = byte((y*3 + seq) & 0xFF)
			f.Planes[2][i] = byte((x ^ y) & 0xFF)
		}
	}
	bx := (seq * 4) % (w - 16)
	for y := h / 4; y < h/4+16 && y < h; y++ {
		for x := bx; x < bx+16; x++ {
			f.Planes[0][y*w+x] = 250
		}
	}
	return f
}

func encodeCmd(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ContinueOnError)
	out := fs.String("o", "", "output container file")
	w := fs.Int("w", 320, "width")
	h := fs.Int("h", 180, "height")
	frames := fs.Int("frames", 60, "frame count")
	q := fs.Int("q", 50, "quality 1-100")
	bPeriod := fs.Int("b", 0, "B-frames between anchors")
	mbps := fs.Float64("bitrate", 0, "target bitrate in Mbps (enables rate control; overrides -q and -b)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("encode: -o required")
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	sw := codec.NewStreamWriter(f)

	cfg := codec.DefaultEncoderConfig()
	cfg.Quality = *q

	if *mbps > 0 {
		rc, err := codec.NewRateController(units.DataRate(*mbps)*units.Mbps, 30, *q)
		if err != nil {
			return err
		}
		enc, err := codec.NewRateControlledEncoder(*w, *h, cfg, rc)
		if err != nil {
			return err
		}
		for i := 0; i < *frames; i++ {
			pkt, _, err := enc.Encode(synthFrame(*w, *h, i))
			if err != nil {
				return err
			}
			if err := sw.WritePacket(pkt); err != nil {
				return err
			}
		}
		fmt.Printf("encoded %d frames, %v, avg %v/frame (target %v)\n",
			sw.Packets(), units.ByteSize(sw.BytesWritten()), rc.AverageFrameBytes(), rc.TargetFrameBytes())
		return nil
	}

	genc, err := codec.NewGOPEncoder(*w, *h, cfg, *bPeriod)
	if err != nil {
		return err
	}
	for i := 0; i < *frames; i++ {
		pkts, err := genc.Push(synthFrame(*w, *h, i))
		if err != nil {
			return err
		}
		for _, pkt := range pkts {
			if err := sw.WritePacket(pkt); err != nil {
				return err
			}
		}
	}
	tail, err := genc.Flush()
	if err != nil {
		return err
	}
	for _, pkt := range tail {
		if err := sw.WritePacket(pkt); err != nil {
			return err
		}
	}
	raw := units.ByteSize(*frames * *w * *h * 3)
	fmt.Printf("encoded %d frames (%dx%d, q%d, B=%d): %v (raw %v, %.1fx)\n",
		*frames, *w, *h, *q, *bPeriod, units.ByteSize(sw.BytesWritten()), raw,
		float64(raw)/float64(sw.BytesWritten()))
	return nil
}

func openStream(path string) (*codec.StreamReader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	sr, err := codec.NewStreamReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return sr, f, nil
}

func infoCmd(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	in := fs.String("i", "", "input container file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("info: -i required")
	}
	sr, f, err := openStream(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	counts := map[codec.FrameType]int{}
	var bytes, n int
	for {
		pkt, err := sr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		counts[pkt.Type]++
		bytes += pkt.Size()
		n++
	}
	fmt.Printf("%s: %d packets (%d I, %d P, %d B), %v payload\n",
		*in, n, counts[codec.IFrame], counts[codec.PFrame], counts[codec.BFrame], units.ByteSize(bytes))
	return nil
}

func decodeCmd(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ContinueOnError)
	in := fs.String("i", "", "input container file")
	raw := fs.String("raw", "", "write decoded frames as raw interleaved RGB")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("decode: -i required")
	}
	sr, f, err := openStream(*in)
	if err != nil {
		return err
	}
	defer f.Close()

	var rawOut *os.File
	if *raw != "" {
		rawOut, err = os.Create(*raw)
		if err != nil {
			return err
		}
		defer rawOut.Close()
	}

	dec := codec.NewGOPDecoder()
	frames := 0
	var lastW, lastH int
	for {
		pkt, err := sr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		out, err := dec.Push(pkt)
		if err != nil {
			return fmt.Errorf("packet seq %d: %w", pkt.Seq, err)
		}
		for _, fr := range out {
			frames++
			lastW, lastH = fr.W, fr.H
			if rawOut != nil {
				if _, err := rawOut.Write(fr.Interleaved()); err != nil {
					return err
				}
			}
		}
	}
	fmt.Printf("decoded %d frames (%dx%d) in display order\n", frames, lastW, lastH)
	if dec.Pending() != 0 {
		return fmt.Errorf("stream ended with %d frames stuck in the reorder buffer", dec.Pending())
	}
	return nil
}
