// Command spinalsend is the transmitting half of the rateless spinal link
// over UDP. It encodes each payload with a spinal code, streams coded-symbol
// frames to the receiver, and keeps going until the receiver acknowledges the
// packet (see cmd/spinalrecv) or the pass budget is exhausted.
//
//	spinalsend -to 127.0.0.1:9700 -text "hello spinal" -repeat 3
//	spinalsend -to 127.0.0.1:9700 -file ./document.txt
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"spinal/internal/link"
)

func main() {
	to := flag.String("to", "127.0.0.1:9700", "receiver UDP address")
	local := flag.String("local", "127.0.0.1:0", "local UDP address to bind")
	text := flag.String("text", "", "payload text to send")
	file := flag.String("file", "", "file whose contents to send (chunked)")
	repeat := flag.Int("repeat", 1, "number of times to send the text payload")
	chunk := flag.Int("chunk", 512, "chunk size in bytes when sending a file")
	passes := flag.Int("max-passes", 60, "give-up bound in encoding passes")
	flow := flag.Uint64("flow", 0,
		"flow identity carried in every frame so one receiver can serve many senders (0 = derive from the process id)")
	flush := flag.Int("flush", 0,
		"data frames coalesced into one sendmmsg-style batched transmit (0 = default, 1 = frame per send)")
	deadline := flag.Duration("deadline", 0,
		"wall-clock budget per packet: give up with a deadline error instead of transmitting forever (0 = no deadline)")
	flag.Parse()

	flowID, err := resolveFlow(*flow, os.Getpid())
	if err == nil {
		err = send(*to, *local, *text, *file, *repeat, *chunk, *passes, flowID, *flush, *deadline)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spinalsend:", err)
		os.Exit(1)
	}
}

// resolveFlow turns the -flow value into the flow id carried on the wire.
// Zero derives the flow from the process id, so distinct concurrent
// spinalsend processes get distinct flows without any coordination. A value
// that does not fit the 32-bit wire field is an error, not a silent wrap
// onto some other flow.
func resolveFlow(flow uint64, pid int) (uint32, error) {
	if flow > math.MaxUint32 {
		return 0, fmt.Errorf("-flow %d exceeds the 32-bit flow id (max %d)", flow, uint32(math.MaxUint32))
	}
	if flow == 0 {
		return uint32(pid), nil
	}
	return uint32(flow), nil
}

func send(to, local, text, file string, repeat, chunk, passes int, flowID uint32, flush int, deadline time.Duration) error {
	if text == "" && file == "" {
		return fmt.Errorf("nothing to send: pass -text or -file")
	}
	var payloads [][]byte
	switch {
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		if chunk < 1 {
			return fmt.Errorf("chunk size must be positive")
		}
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			payloads = append(payloads, data[off:end])
		}
	default:
		for i := 0; i < repeat; i++ {
			payloads = append(payloads, []byte(text))
		}
	}

	tr, err := link.NewUDP(local, to)
	if err != nil {
		return err
	}
	defer tr.Close()
	sender, err := link.NewSender(tr, link.Config{
		MaxPasses:    passes,
		AckPoll:      2 * time.Millisecond,
		FlowID:       flowID,
		FlushFrames:  flush,
		SendDeadline: deadline,
	})
	if err != nil {
		return err
	}
	fmt.Printf("spinalsend: transmitting as flow %d\n", flowID)

	totalBits, totalSymbols := 0, 0
	for i, p := range payloads {
		report, err := sender.Send(uint32(i+1), p)
		if errors.Is(err, link.ErrDeadline) {
			fmt.Printf("packet %d: gave up at the %v deadline after %d symbols\n",
				i+1, deadline, report.SymbolsSent)
			continue
		}
		if err != nil {
			return err
		}
		if report.Shed {
			fmt.Printf("packet %d: flow shed by the receiver's admission control after %d symbols\n",
				i+1, report.SymbolsSent)
			continue
		}
		if !report.Acked {
			fmt.Printf("packet %d: NOT acknowledged after %d symbols\n", i+1, report.SymbolsSent)
			continue
		}
		totalBits += len(p) * 8
		totalSymbols += report.SymbolsSent
		fmt.Printf("packet %d: %d bytes in %d symbols (%.2f bits/symbol, %d frames)\n",
			i+1, len(p), report.SymbolsSent, report.Rate, report.FramesSent)
	}
	if totalSymbols > 0 {
		fmt.Printf("aggregate rate: %.2f bits/symbol over %d packets\n",
			float64(totalBits)/float64(totalSymbols), len(payloads))
	}
	return nil
}
