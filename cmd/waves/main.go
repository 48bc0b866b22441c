// Command waves inspects Surf-Bless wave schedules: it renders the
// Figure-3 style wave animation for any mesh/hop-delay, and analyzes a
// wave→domain assignment — per-domain slot share, worm turn rows, and
// the worst-case north/west detour that drives the deflection penalty
// (DESIGN.md §6).
//
// Usage:
//
//	waves [-n 8] [-p 3] [-wave 0] [-frames 6]            # render
//	waves -n 8 -p 3 -analyze -domains 3 -size 5          # analyze §5.2-style sets
//	waves -analyze -sets paper                           # the paper's literal sets
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"surfbless/internal/geom"
	"surfbless/internal/wave"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flags in, text
// out, exit code back.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("waves", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 4, "mesh dimension (N×N)")
	p := fs.Int("p", 1, "hop delay P in cycles")
	waveIdx := fs.Int("wave", 0, "wave index to render")
	frames := fs.Int("frames", 0, "frames to render (0 = one full period)")
	analyze := fs.Bool("analyze", false, "analyze a wave-set assignment instead of rendering")
	domains := fs.Int("domains", 3, "analyze: number of domains (1 ctrl + rest data)")
	size := fs.Int("size", 5, "analyze: worm window width in waves")
	sets := fs.String("sets", "tuned", "analyze: tuned | paper | roundrobin")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "waves:", err)
		return 1
	}
	if *n < 2 || *p < 1 {
		return fail(fmt.Errorf("-n %d -p %d: a wave schedule needs N ≥ 2 and P ≥ 1", *n, *p))
	}
	sched := wave.New(geom.NewMesh(*n, *n), *p)
	if !*analyze {
		if *waveIdx < 0 || *waveIdx >= sched.Smax() {
			return fail(fmt.Errorf("-wave %d outside [0,%d)", *waveIdx, sched.Smax()))
		}
		count := *frames
		if count <= 0 {
			count = sched.Smax()
		}
		fmt.Fprintf(stdout, "N=%d P=%d Smax=%d, tracking wave %d for %d frames\n\n",
			*n, *p, sched.Smax(), *waveIdx, count)
		for i := 0; i < count; i++ {
			fmt.Fprintln(stdout, wave.RenderWave(sched, *waveIdx, int64(i)))
		}
		return 0
	}

	if *domains < 1 || *size < 1 {
		return fail(fmt.Errorf("-domains %d -size %d: both must be ≥ 1", *domains, *size))
	}
	dec, err := buildDecoder(sched.Smax(), *p, *domains, *size, *sets)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "schedule: N=%d P=%d Smax=%d, %d domains, %q sets, worm width %d\n\n",
		*n, *p, sched.Smax(), dec.Domains(), *sets, *size)
	for dom := 0; dom < dec.Domains(); dom++ {
		width := *size
		if dom == 0 && *sets != "roundrobin" {
			width = 1 // control domain carries 1-flit packets
		}
		fmt.Fprintf(stdout, "domain %d: share %.1f%%, %d startable %d-wide windows, worst N/W detour %d rows\n",
			dom, 100*wave.DomainShare(dec, dom), dec.StartableSlots(dom, width), width,
			wave.WorstDetour(dec, *p, *n, dom, width))
		for _, s := range dec.Owned(dom) {
			if !dec.CanStart(s, width) {
				continue
			}
			fmt.Fprintf(stdout, "  window @%2d turns at rows %v\n", s, wave.TurnRows(dec, *p, *n, dom, s, width))
		}
	}
	return 0
}

// buildDecoder assembles the requested wave→domain assignment.
func buildDecoder(smax, p, domains, size int, kind string) (*wave.Decoder, error) {
	var sets [][]int
	var err error
	switch {
	case kind == "roundrobin":
		return wave.RoundRobin(smax, domains), nil
	case kind != "tuned" && kind != "paper":
		return nil, fmt.Errorf("unknown sets %q (want tuned, paper or roundrobin)", kind)
	case domains < 2:
		return nil, fmt.Errorf("wave sets need ≥ 2 domains (1 ctrl + data)")
	case kind == "tuned":
		sets, err = wave.StrideSets(smax, p, domains-1, size)
	case smax != 42 || domains != 3:
		return nil, fmt.Errorf("the paper's literal sets exist for Smax=42, 3 domains")
	default:
		sets = wave.PaperSets(size)
	}
	if err != nil {
		return nil, err
	}
	return wave.FromSets(smax, sets)
}
