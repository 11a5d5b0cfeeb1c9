// Package core is the public face of the CARE reproduction: it ties the
// compiler, the Armor pass and the Safeguard runtime together behind a
// small API.
//
//	bin, _ := core.Build(module, core.BuildOptions{OptLevel: 1})
//	p, _ := core.NewProcess(core.ProcessConfig{App: bin, Protected: true})
//	status := p.Run(0)
//
// Build compiles an IR module into a prelinked machine image, runs Armor
// over it to produce the recovery library and recovery table, and
// packages everything a process needs. NewProcess assembles the
// simulated process (memory, stack, images) and — when Protected —
// attaches Safeguard exactly the way LD_PRELOAD would.
package core

import (
	"fmt"
	"time"

	"care/internal/armor"
	"care/internal/checkpoint"
	"care/internal/compiler"
	"care/internal/defense"
	"care/internal/hostenv"
	"care/internal/ir"
	"care/internal/machine"
	"care/internal/safeguard"

	// Pull the rival defense passes into every build's registry so a
	// plain name list selects them.
	_ "care/internal/defense/presage"
	_ "care/internal/defense/sfi"
)

// BuildOptions configures Build.
type BuildOptions struct {
	// OptLevel is 0 or 1 (the paper's evaluated configurations).
	OptLevel int
	// Defenses names the registered defense passes to run over the
	// optimised module, in list order (see internal/defense). Nil or
	// empty means an undefended baseline build; "care" selects CARE's
	// armor (recovery kernels + table), "presage"/"sfi" the detection
	// rivals, and lists compose ("care,presage").
	Defenses []string
	// Armor tunes the "care" pass (forwarded as its Tuning).
	Armor armor.Options
	// LibIndex positions a shared-library image; -1 (or 0 with IsLib
	// false) means the main executable. Use BuildLib for libraries.
	LibIndex int
	// IsLib marks a shared-library build.
	IsLib bool
}

// Binary is a built image plus its defense artifacts.
type Binary struct {
	Name string
	// Prog is the compiled image.
	Prog *machine.Program
	// RecoveryTable and RecoveryLib are the encoded CARE artifacts
	// (empty unless a repair pass such as "care" ran).
	RecoveryTable []byte
	RecoveryLib   []byte
	// DefenseStats describes each defense pass's run, keyed by pass
	// name ("care", "presage", ...).
	DefenseStats map[string]defense.Stats
	// Detects marks a binary instrumented by at least one
	// detection-only defense: its checks raise SIGTRAP traps, so a
	// Safeguard should be attached even without a recovery table.
	Detects bool
	// CompileTime is the plain compilation time (excluding defenses),
	// the paper's "Normal Compilation" column.
	CompileTime time.Duration
	// Census is the address-computation census of the (optimised)
	// module (Table 5).
	Census armor.CensusRow
	// Module is the post-defense IR (for analyses).
	Module *ir.Module
	// Deps are the library binaries Build linked the image against, in
	// the order given. NewProcess loads an app's Deps before the app.
	Deps []*Binary
}

// Protected reports whether the binary carries recovery artifacts.
func (b *Binary) Protected() bool { return len(b.RecoveryTable) > 0 }

// Defended reports whether the binary needs a Safeguard attached:
// either it can repair (recovery table) or it can detect (SIGTRAP
// checks feeding the escalation chain).
func (b *Binary) Defended() bool { return b.Protected() || b.Detects }

// Build compiles a main-executable module with CARE. deps are
// previously built library binaries the module links against; the
// returned Binary records them as its Deps.
func Build(m *ir.Module, opts BuildOptions, deps ...*Binary) (*Binary, error) {
	var copts compiler.Options
	if opts.IsLib {
		copts = compiler.LibOptions(opts.OptLevel, opts.LibIndex)
	} else {
		copts = compiler.AppOptions(opts.OptLevel)
	}
	copts.ExternFuncs = map[string]machine.Word{}
	copts.ExternGlobals = map[string]machine.Word{}
	for _, d := range deps {
		for _, f := range d.Prog.Funcs {
			copts.ExternFuncs[f.Name] = d.Prog.AddrOf(f.Entry)
		}
		for _, g := range d.Prog.Globals {
			if !g.Extern {
				copts.ExternGlobals[g.Name] = g.Addr
			}
		}
	}

	// Run the optimisation pipeline up front so that every defense pass
	// analyses (and instruments) the same IR the code generator lowers.
	if opts.OptLevel >= 1 {
		compiler.Optimize(m)
	}
	copts.SkipOptimize = true

	passes, err := defense.Resolve(opts.Defenses)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	bin := &Binary{Name: m.Name, Module: m, Deps: deps}
	// Census before instrumentation: the census describes the program's
	// own address computations, not the checks a defense inserts.
	bin.Census = armor.Census(m)

	var kernels *ir.Module
	var table []byte
	for _, pass := range passes {
		res, err := pass.Apply(m, defense.Options{
			OptLevel: opts.OptLevel,
			IsLib:    opts.IsLib,
			Tuning:   opts.Armor,
		})
		if err != nil {
			return nil, fmt.Errorf("core: defense %s: %w", pass.Name(), err)
		}
		if bin.DefenseStats == nil {
			bin.DefenseStats = map[string]defense.Stats{}
		}
		bin.DefenseStats[pass.Name()] = res.Stats
		if res.Kernels != nil {
			if kernels != nil {
				return nil, fmt.Errorf("core: defenses %v: more than one repair pass emitted recovery kernels", opts.Defenses)
			}
			kernels = res.Kernels
			table = res.Table
		}
		if d, ok := pass.(defense.Detector); ok && d.Detects() {
			bin.Detects = true
		}
	}

	t0 := time.Now()
	prog, err := compiler.Compile(m, copts)
	if err != nil {
		return nil, fmt.Errorf("core: compile %s: %w", m.Name, err)
	}
	bin.CompileTime = time.Since(t0)
	bin.Prog = prog

	if kernels != nil {
		// The recovery library is its own image, linked against the
		// application's globals and simple functions.
		kopts := compiler.LibOptions(opts.OptLevel, recoveryLibIndex(opts))
		kopts.ExternFuncs = map[string]machine.Word{}
		kopts.ExternGlobals = map[string]machine.Word{}
		for _, f := range prog.Funcs {
			kopts.ExternFuncs[f.Name] = prog.AddrOf(f.Entry)
		}
		for _, g := range prog.Globals {
			kopts.ExternGlobals[g.Name] = g.Addr
		}
		kprog, err := compiler.Compile(kernels, kopts)
		if err != nil {
			return nil, fmt.Errorf("core: compile recovery kernels: %w", err)
		}
		lib, err := kprog.Encode()
		if err != nil {
			return nil, err
		}
		bin.RecoveryLib = lib
		bin.RecoveryTable = table
	}
	return bin, nil
}

// BuildLib compiles a shared-library module (e.g. BLAS) with the given
// defense list. Library images occupy slot index (0-based).
func BuildLib(m *ir.Module, opt int, index int, defenses []string, deps ...*Binary) (*Binary, error) {
	return Build(m, BuildOptions{OptLevel: opt, IsLib: true, LibIndex: index, Defenses: defenses}, deps...)
}

// recoveryLibIndex maps an image to the library slot of its recovery
// library: main executable -> 64, library i -> 65+i. Slots below 64 are
// reserved for ordinary libraries.
func recoveryLibIndex(opts BuildOptions) int {
	if !opts.IsLib {
		return 64
	}
	return 65 + opts.LibIndex
}

// ProcessConfig assembles a process.
type ProcessConfig struct {
	// App is the main executable; its Deps load with it.
	App *Binary
	// Protected attaches Safeguard.
	Protected bool
	// Safeguard tunes the runtime (zero value = paper configuration).
	Safeguard safeguard.Config
	// Env overrides the host environment (nil = fresh single-rank env).
	Env *hostenv.Env
	// Tier selects the interpreter tier for the process CPU: the fused
	// superblock engine (the zero-value default) or the legacy
	// per-instruction Step loop. Results are identical on both tiers
	// (the CI smoke diffs them); the knob exists for that check and for
	// timing comparisons.
	Tier machine.InterpTier
}

// Process is one simulated process: a CPU, its memory and images, and
// optionally the Safeguard runtime.
type Process struct {
	Mem    *machine.Memory
	CPU    *machine.CPU
	Env    *hostenv.Env
	App    *machine.Image
	Images []*machine.Image
	SG     *safeguard.Safeguard
}

// newLoadedProcess assembles the address space shared by the cold and
// warm process paths: a fresh memory with the app's Deps and then the
// app loaded (read-only .text shared across processes, globals mapped
// copy-on-write) and attached to a new CPU, plus the Safeguard units of
// protected images.
func newLoadedProcess(cfg ProcessConfig) (*Process, []*safeguard.Unit, error) {
	if cfg.App == nil {
		return nil, nil, fmt.Errorf("core: no app binary")
	}
	mem := machine.NewMemory()
	env := cfg.Env
	if env == nil {
		env = hostenv.NewEnv()
	}
	cpu := machine.NewCPU(mem, env)
	cpu.Tier = cfg.Tier
	p := &Process{Mem: mem, CPU: cpu, Env: env}

	var units []*safeguard.Unit
	loadOne := func(b *Binary) (*machine.Image, error) {
		img, err := machine.Load(mem, b.Prog)
		if err != nil {
			return nil, err
		}
		cpu.Attach(img)
		p.Images = append(p.Images, img)
		if b.Protected() {
			units = append(units, &safeguard.Unit{
				Image:      img,
				TableBytes: b.RecoveryTable,
				LibBytes:   b.RecoveryLib,
			})
		}
		return img, nil
	}
	for _, lb := range cfg.App.Deps {
		if _, err := loadOne(lb); err != nil {
			return nil, nil, err
		}
	}
	app, err := loadOne(cfg.App)
	if err != nil {
		return nil, nil, err
	}
	p.App = app
	return p, units, nil
}

// NewProcess loads the binaries into a fresh address space and prepares
// execution at _start.
func NewProcess(cfg ProcessConfig) (*Process, error) {
	p, units, err := newLoadedProcess(cfg)
	if err != nil {
		return nil, err
	}
	cpu := p.CPU
	if err := cpu.InitStack(); err != nil {
		return nil, err
	}
	if err := cpu.Start(p.App, "_start"); err != nil {
		return nil, err
	}
	if cfg.Protected {
		p.SG = safeguard.Attach(cpu, units, cfg.Safeguard)
	}
	return p, nil
}

// NewProcessFromSnapshot builds a process warm-started from a golden-run
// snapshot of the same binaries: images are loaded as usual (sharing the
// read-only code segments), then the snapshot's memory image, registers
// and host-environment streams are applied in place of InitStack/Start,
// so the process resumes mid-run at snapshot.CPU.Dyn. Because the
// snapshot's pages alias frozen bytes copy-on-write, any number of
// concurrent processes may warm-start from one snapshot.
//
// The golden prefix is fault-free, so a Safeguard attached after the
// restore holds exactly the state it would have held at that point of a
// cold run (no activations yet). Its checkpoint store cannot be seeded
// this way — the _start snapshot would capture mid-run state and turn
// rollback into a semantic no-op — so a protected config whose policy
// restores (Policy.NeedsStore) is refused.
func NewProcessFromSnapshot(cfg ProcessConfig, sn *checkpoint.Snapshot) (*Process, error) {
	if sn == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if cfg.Protected && cfg.Safeguard.Policy.NeedsStore() {
		return nil, fmt.Errorf("core: warm start cannot seed the Safeguard's checkpoint store (its initial snapshot would capture mid-run state)")
	}
	p, units, err := newLoadedProcess(cfg)
	if err != nil {
		return nil, err
	}
	sn.Apply(p.CPU)
	// Apply replaced every writable segment with the snapshot's, so the
	// images' global-segment handles must be re-resolved.
	for _, im := range p.Images {
		if im.GlobalSeg != nil {
			im.GlobalSeg = p.Mem.Find(im.Prog.GlobalBase)
		}
	}
	if cfg.Protected {
		p.SG = safeguard.Attach(p.CPU, units, cfg.Safeguard)
	}
	return p, nil
}

// Run executes until exit/trap/block/limit.
func (p *Process) Run(limit uint64) machine.RunStatus {
	return p.CPU.Run(limit)
}

// Results returns the values the program reported via result_f64 — the
// output stream used for golden comparison (SDC detection).
func (p *Process) Results() []float64 { return p.Env.Results }
