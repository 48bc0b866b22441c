package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"surfbless/internal/sweepsvc"
)

// recordDigests runs every op of every workload once at recordedSeed and
// writes the reference digests to path.  Each sim op must also match its
// traced copy, each system op a second call, and each sweep job's CSV
// both the serial reference runner and what cmd/sweep prints locally
// for the same flags (run from the repository root).
func recordDigests(path, work string) error {
	d := digests{Seed: recordedSeed, Ops: map[string]string{}, CSV: map[string]string{}}
	for _, plan := range []func(int64) ([]op, error){synthOps, appOps, giantOps} {
		ops, err := plan(recordedSeed)
		if err != nil {
			return err
		}
		for _, o := range ops {
			got, _, err := o.run()
			if err != nil {
				return fmt.Errorf("%s: %w", o.Name, err)
			}
			var check string
			if o.Sim != nil {
				res, _, err := tracedSim(*o.Sim, false)
				check, err = simDigest(res, err)
				if err != nil {
					return fmt.Errorf("%s: traced copy: %w", o.Name, err)
				}
			} else if check, _, err = o.run(); err != nil {
				return fmt.Errorf("%s: second call: %w", o.Name, err)
			}
			if check != got {
				return fmt.Errorf("%s: cross-check digest %.12s differs from %.12s", o.Name, check, got)
			}
			d.Ops[o.Name] = got
			fmt.Fprintf(os.Stderr, "recorded %-34s %.16s\n", o.Name, got)
		}
	}

	specs := sweepSpecs(recordedSeed)
	svc, err := startService(filepath.Join(work, "tmp"), recordedSeed, nil)
	if err != nil {
		return err
	}
	run, err := svc.runJobs(specs)
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	for j := len(specs); j < len(run.csv); j++ {
		if run.csv[j] != run.csv[0] {
			return fmt.Errorf("sweep job %d (a copy of the first) differs from it", j)
		}
	}
	for i, sp := range specs {
		var serial strings.Builder
		if _, err := (&sweepsvc.Runner{}).SerialCSV(context.Background(), sp, &serial); err != nil {
			return err
		}
		local, err := localSweep(sp)
		if err != nil {
			return err
		}
		if run.csv[i] != serial.String() || run.csv[i] != local {
			return fmt.Errorf("sweep %s: service, serial and cmd/sweep CSVs differ", sp.Model)
		}
		d.CSV["sweep-service/"+sp.Model] = run.csv[i]
		fmt.Fprintf(os.Stderr, "recorded sweep-service/%s (%d rows)\n", sp.Model, strings.Count(local, "\n")-1)
	}

	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// localSweep is cmd/sweep's output for the spec's flags, uncached.
func localSweep(sp sweepsvc.Spec) (string, error) {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	cmd := exec.Command("go", "run", "./cmd/sweep", "-model", sp.Model,
		"-domains", strconv.Itoa(sp.Domains), "-from", f(sp.From), "-to", f(sp.To), "-step", f(sp.Step),
		"-cycles", strconv.FormatInt(sp.Cycles, 10), "-seed", strconv.FormatInt(sp.Seed, 10), "-no-cache")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("cmd/sweep %s: %w", sp.Model, err)
	}
	return out.String(), nil
}
