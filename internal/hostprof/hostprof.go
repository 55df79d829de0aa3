// Package hostprof is the shared pprof wiring for the cmd/ tools: one
// flag set (-pprofaddr, -cpuprofile, -memprofile, -blockprofile,
// -mutexprofile) registered identically everywhere, so any run of any
// tool can be profiled the same way. It complements internal/runtimeobs:
// the runtime trace says *where* the host time went structurally (sweep
// pool, engine phases); a profile says which functions burned it.
package hostprof

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on DefaultServeMux
	"os"
	"runtime"
	"runtime/pprof"
)

// Config holds the profiling destinations one tool run requested.
type Config struct {
	PprofAddr    string
	CPUProfile   string
	MemProfile   string
	BlockProfile string
	MutexProfile string
}

// RegisterFlags registers the shared profiling flags on the default flag
// set and returns the config they fill. Call before flag.Parse.
func RegisterFlags() *Config {
	c := &Config{}
	flag.StringVar(&c.PprofAddr, "pprofaddr", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
	flag.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile at exit to this file")
	flag.StringVar(&c.BlockProfile, "blockprofile", "", "write a goroutine blocking profile at exit to this file (sweep-pool waits show up here)")
	flag.StringVar(&c.MutexProfile, "mutexprofile", "", "write a mutex contention profile at exit to this file")
	return c
}

// Start arms every requested profiler. The returned stop function writes
// the at-exit profiles and must be called once when the measured work is
// done (a no-op when nothing was requested).
func (c *Config) Start() (stop func() error, err error) {
	if c.PprofAddr != "" {
		// Bind synchronously so a bad address fails the run immediately;
		// serve in the background for its duration.
		ln, err := net.Listen("tcp", c.PprofAddr)
		if err != nil {
			return nil, fmt.Errorf("hostprof: -pprofaddr: %w", err)
		}
		fmt.Fprintf(os.Stderr, "hostprof: pprof server on http://%s/debug/pprof/\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "hostprof: pprof server: %v\n", err)
			}
		}()
	}

	var cpuFile *os.File
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return nil, err
		}
		cpuFile = f
	}
	if c.BlockProfile != "" {
		runtime.SetBlockProfileRate(1)
	}
	if c.MutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}

	return func() error {
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				errs = append(errs, fmt.Errorf("close %s: %w", c.CPUProfile, err))
			}
		}
		if c.BlockProfile != "" {
			errs = append(errs, writeLookup("block", c.BlockProfile))
			runtime.SetBlockProfileRate(0)
		}
		if c.MutexProfile != "" {
			errs = append(errs, writeLookup("mutex", c.MutexProfile))
			runtime.SetMutexProfileFraction(0)
		}
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				errs = append(errs, err)
			} else {
				runtime.GC() // materialize up-to-date allocation stats
				if err := pprof.WriteHeapProfile(f); err != nil {
					errs = append(errs, err)
					_ = f.Close()
				} else if err := f.Close(); err != nil {
					errs = append(errs, fmt.Errorf("close %s: %w", c.MemProfile, err))
				}
			}
		}
		return errors.Join(errs...)
	}, nil
}

// writeLookup writes one runtime profile (block, mutex) to path.
func writeLookup(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("hostprof: no %s profile", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteTo(f, 0); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
