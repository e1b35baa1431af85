package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sprwl/internal/htm"
)

// Figure sweeps are embarrassingly parallel: every data point builds its own
// engine, address space, and collector, shares nothing mutable, and is
// internally deterministic. runJobs executes a sweep's points over a bounded
// worker pool and assembles results in job order, so a report is
// byte-identical regardless of the worker count — only progress-line
// interleaving (stderr logging) varies.

// pointJob is one data point of a figure sweep: which section of the report
// it belongs to, a label for progress and error messages, and the
// self-contained measurement.
type pointJob struct {
	section int
	label   string
	cfg     PointConfig
}

// sweep builds one figure's report in three calls: section opens a panel,
// add files a point under the latest panel, and run measures every point.
// It fills in the profile, horizon and seed of each point.
type sweep struct {
	rep     *Report
	profile htm.Profile
	opts    RunOpts
	jobs    []pointJob
}

func newSweep(rep *Report, p htm.Profile, opts RunOpts) *sweep {
	return &sweep{rep: rep, profile: p, opts: opts}
}

func (s *sweep) section(title string) {
	s.rep.Sections = append(s.rep.Sections, Section{Title: title})
}

func (s *sweep) add(algo string, threads int, wl Workload) {
	sec := len(s.rep.Sections) - 1
	s.jobs = append(s.jobs, pointJob{
		section: sec,
		label:   fmt.Sprintf("%s %s %s@%d", s.rep.ID, s.rep.Sections[sec].Title, algo, threads),
		cfg: PointConfig{
			Algo: algo, Threads: threads, Profile: s.profile,
			Workload: wl, Horizon: s.opts.horizon(), Seed: s.opts.Seed,
		},
	})
}

func (s *sweep) run() (*Report, error) {
	pts, err := runJobs(s.opts, s.jobs)
	if err != nil {
		return nil, err
	}
	for i, j := range s.jobs {
		sec := &s.rep.Sections[j.section]
		sec.Points = append(sec.Points, pts[i])
	}
	return s.rep, nil
}

// workers resolves the effective pool size: RunOpts.Parallel, or GOMAXPROCS
// when unset.
func (o *RunOpts) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// runJobs executes jobs over at most opts.workers() concurrent workers and
// returns the points in job order. On failure it reports the error of the
// lowest-indexed failing job (deterministic regardless of scheduling).
func runJobs(opts RunOpts, jobs []pointJob) ([]Point, error) {
	var (
		pts      = make([]Point, len(jobs))
		errs     = make([]error, len(jobs))
		next     atomic.Int64
		failed   atomic.Bool
		progress sync.Mutex
		wg       sync.WaitGroup
	)
	for range min(opts.workers(), len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				pt, err := RunPoint(jobs[i].cfg)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				pts[i] = pt
				progress.Lock()
				opts.progress("%s: %s", jobs[i].label, pt)
				progress.Unlock()
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", jobs[i].label, err)
		}
	}
	return pts, nil
}
