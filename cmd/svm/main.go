// Command svm drives the simulated fault-tolerant SVM cluster through the
// subcommands listed in usage. Every run is a deterministic simulation in
// virtual time: the same flags print the same output. Exit status is 0 on
// success, 1 when a cell, schedule or verification failed, and 2 on bad
// usage.
package main

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"ftsvm/internal/apps"
	"ftsvm/internal/harness"
	"ftsvm/internal/obs"
	"ftsvm/internal/svm"
)

const usage = `usage: svm <command> [flags]

commands:
  run    execute one application, optionally failing a node or tracing events
  bench  regenerate the paper's figures (-figure) and ablations (-ablation)
  fi     sweep every failure point of a workload under the auditor and oracle
  serve  open-loop serving benchmark under chaos with a mid-run kill

Run 'svm <command> -h' for a command's flags.
`

var commands = map[string]func(args []string, out, errw io.Writer) int{
	"run":   runCmd,
	"bench": benchCmd,
	"fi":    fiCmd,
	"serve": serveCmd,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main behind its arguments, writers and exit code, so tests can
// drive every subcommand in-process.
func run(args []string, out, errw io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(errw, usage)
		return 2
	}
	cmd, ok := commands[args[0]]
	if !ok {
		fmt.Fprintf(errw, "svm: unknown command %q\n%s", args[0], usage)
		return 2
	}
	return cmd(args[1:], out, errw)
}

// parse parses a subcommand's flags. When it reports !ok the subcommand
// returns code: 0 after -h, 2 after a malformed flag, a bad value or a
// stray argument, each reported as one line.
func parse(fs *flag.FlagSet, args []string, errw io.Writer) (code int, ok bool) {
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch {
	case err == flag.ErrHelp:
		fs.SetOutput(errw)
		fs.Usage()
		return 0, false
	case err != nil:
		return usageError(errw, fs.Name(), err), false
	}
	return 0, true
}

// usageError reports bad usage of a subcommand as one line and returns
// its exit code.
func usageError(errw io.Writer, cmd string, err error) int {
	fmt.Fprintf(errw, "svm %s: %v\n", cmd, err)
	return 2
}

// value is a flag whose text parse converts and checks while the flags
// are parsed, so an unknown or out-of-range value fails exactly like a
// malformed one. String keeps the text as given.
type value[T any] struct {
	p     *T
	text  string
	parse func(string) (T, error)
}

func (v *value[T]) String() string { return v.text }

func (v *value[T]) Set(s string) error {
	t, err := v.parse(s)
	if err == nil {
		*v.p, v.text = t, s
	}
	return err
}

// enum registers a value flag with default text def.
func enum[T any](fs *flag.FlagSet, name, def, usage string, parse func(string) (T, error)) *T {
	v := &value[T]{p: new(T), parse: parse}
	if err := v.Set(def); err != nil {
		panic(err) // a default that does not parse is a bug
	}
	fs.Var(v, name, usage)
	return v.p
}

// oneOf parses a value that must be one of names' keys.
func oneOf[T any](names map[string]T) func(string) (T, error) {
	return func(s string) (T, error) {
		v, ok := names[s]
		if !ok {
			return v, fmt.Errorf("want %s", strings.Join(slices.Sorted(maps.Keys(names)), ", "))
		}
		return v, nil
	}
}

// list lifts an element parser to a comma-separated list.
func list[T any](parse func(string) (T, error)) func(string) ([]T, error) {
	return func(s string) ([]T, error) {
		var out []T
		for _, f := range strings.Split(s, ",") {
			v, err := parse(strings.TrimSpace(f))
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
}

// atLeast parses an integer that must not be below min.
func atLeast(min int) func(string) (int, error) {
	return func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err == nil && n < min {
			err = fmt.Errorf("need >= %d", min)
		}
		return n, err
	}
}

// parseScenarios parses a -scenarios list of chaos scenario names; empty
// is every scenario.
func parseScenarios(s string) ([]harness.ChaosScenario, error) {
	if s == "" {
		return harness.ChaosScenarios(), nil
	}
	return list(harness.ChaosByName)(s)
}

// appNames is every application harness.Build knows.
var appNames = harness.Apps()

// appName checks one application name.
func appName(s string) (string, error) {
	if !slices.Contains(appNames, s) {
		return "", fmt.Errorf("unknown application %q (want %s)", s, strings.Join(appNames, ", "))
	}
	return s, nil
}

// kindName checks one flight-recorder event-kind name.
func kindName(s string) (string, error) {
	if _, ok := obs.KindByName(s); !ok {
		return "", fmt.Errorf("unknown event kind %q", s)
	}
	return s, nil
}

// survivable rejects a failure injected into a cluster too small to
// survive it: after the kill, two live nodes must hold each page.
func survivable(nodes int) error {
	if nodes < 3 {
		return fmt.Errorf("a %d-node cluster cannot survive a failure (need -nodes >= 3)", nodes)
	}
	return nil
}

// profiles holds a subcommand's -cpuprofile and -memprofile flags and,
// once opened, their files. pprof drops its write errors, so both
// profiles are written to memory first and copied to their files at close.
type profiles struct {
	cmd        string
	cpu, mem   *string
	cpuF, memF *os.File
	cpuBuf     bytes.Buffer
}

func profileFlags(fs *flag.FlagSet) profiles {
	return profiles{
		cmd: fs.Name(),
		cpu: fs.String("cpuprofile", "", "write a CPU profile of the workload to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// open creates both profile files and starts the CPU profile. The caller
// opens them before it builds anything, reports an error as bad usage,
// and defers close.
func (p *profiles) open() (err error) {
	if *p.cpu != "" {
		p.cpuF, err = os.Create(*p.cpu)
	}
	if err == nil && *p.mem != "" {
		p.memF, err = os.Create(*p.mem)
	}
	if err == nil && p.cpuF != nil {
		err = pprof.StartCPUProfile(&p.cpuBuf)
	}
	if err != nil {
		p.cpuF.Close() // a nil *os.File only returns an error
		p.memF.Close()
	}
	return err
}

// close ends the CPU profile and writes both profiles. The first failure
// is reported as one line and makes the exit status at least 1.
func (p *profiles) close(errw io.Writer, code *int) {
	var errs []error
	write := func(f *os.File, b []byte) {
		_, err := f.Write(b)
		errs = append(errs, err, f.Close())
	}
	if p.cpuF != nil {
		pprof.StopCPUProfile()
		write(p.cpuF, p.cpuBuf.Bytes())
	}
	if p.memF != nil {
		runtime.GC()
		var heap bytes.Buffer
		errs = append(errs, pprof.WriteHeapProfile(&heap))
		write(p.memF, heap.Bytes())
	}
	if err := cmp.Or(errs...); err != nil {
		fmt.Fprintf(errw, "svm %s: %v\n", p.cmd, err)
		*code = max(*code, 1)
	}
}

// finish runs cl to completion and ends in the one end-of-run check,
// with the workload's own result verification.
func finish(cl *svm.Cluster, w *apps.Workload) error {
	if err := cl.Run(); err != nil {
		return fmt.Errorf("simulation error: %w", err)
	}
	return cl.Verify(w.Err)
}
