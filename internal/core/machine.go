package core

import (
	"rambda/internal/accel"
	"rambda/internal/coherence"
	"rambda/internal/hostcpu"
	"rambda/internal/interconnect"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/rnic"
	"rambda/internal/sim"
)

// MachineConfig selects a machine's hardware.
type MachineConfig struct {
	Name string
	// WithNVM adds the emulated Optane DIMMs.
	WithNVM bool
	// Variant selects the cc-accelerator build.
	Variant AccelVariant
	// DDIOEnabled is the global DDIO knob. Adaptive DDIO (the RAMBDA
	// default) turns it off and uses per-MR TPH instead.
	DDIOEnabled bool
	// AccelLocalBytes reserves an accelerator-local data region of this
	// size for LD/LH variants, as the machine's first allocation. Fig. 7
	// no longer uses it: it maps its list in as accelerator-local
	// memory instead.
	AccelLocalBytes uint64
	// Cores overrides the CPU core count (0 = testbed default); the
	// microbenchmark and DLRM experiments sweep it.
	Cores int
}

// Machine is one server or client box.
type Machine struct {
	Name  string
	Space *memspace.Space
	Mem   *memdev.System
	Coh   *coherence.Domain
	CPU   *hostcpu.CPU
	NIC   *rnic.NIC

	CCLink *interconnect.CCLink
	Accel  *accel.Accel // nil for NoAccel

	// PCIe directions between the NIC and the host.
	PCIeIn  *interconnect.PCIe // NIC -> host
	PCIeOut *interconnect.PCIe // host -> NIC
}

// NewMachine builds a machine per the testbed constants.
func NewMachine(cfg MachineConfig) *Machine {
	space := memspace.New()
	mem := &memdev.System{
		Space: space,
		DRAM:  memdev.NewDRAM(cfg.Name+":dram", DRAMChannels, DRAMBW, DRAMLatency),
		LLC:   memdev.NewLLC(cfg.Name+":llc", LLCBW, LLCLatency),
	}
	mem.LLC.DDIOEnabled = cfg.DDIOEnabled
	if cfg.WithNVM {
		mem.NVM = memdev.NewNVM(cfg.Name+":nvm", NVMDimms, NVMReadBW, NVMLatency, NVMWriteCost)
	}

	cores := cfg.Cores
	if cores <= 0 {
		cores = CPUCores
	}
	coh := coherence.NewDomain()
	m := &Machine{
		Name:    cfg.Name,
		Space:   space,
		Mem:     mem,
		Coh:     coh,
		CPU:     hostcpu.New(hostcpu.Config{Name: cfg.Name + ":cpu", Cores: cores, ClockHz: CPUClockHz}, mem),
		CCLink:  interconnect.NewCCLink(cfg.Name+":upi", UPIBW, UPIHop),
		PCIeIn:  interconnect.NewPCIe(cfg.Name+":pcie-in", PCIeBW, PCIeProp, PCIeMMIOCost),
		PCIeOut: interconnect.NewPCIe(cfg.Name+":pcie-out", PCIeBW, PCIeProp, PCIeMMIOCost),
	}

	host := &rnic.Host{
		Space: space,
		Mem:   mem,
		PCIe:  m.PCIeIn,
		PCIeR: m.PCIeOut,
		Coh:   coh,
		Agent: coherence.AgentNIC,
	}
	m.NIC = rnic.New(rnic.Config{Name: cfg.Name + ":rnic"}, host)

	if cfg.Variant != NoAccel {
		var local *memdev.LocalMem
		switch cfg.Variant {
		case AccelLD:
			local = memdev.NewLocalMem(cfg.Name+":ld", LDChannels, LDBW, LDLatency, LDPerOp)
		case AccelLH:
			local = memdev.NewLocalMem(cfg.Name+":lh", LHChannels, LHBW, LHLatency, LHPerOp)
		}
		mem.Local = local
		if local != nil && cfg.AccelLocalBytes > 0 {
			space.Alloc(cfg.Name+":accel-local", cfg.AccelLocalBytes, memspace.KindAccelLocal)
		}
		m.Accel = accel.New(accel.DefaultConfig(cfg.Name+":accel"), m.CCLink, mem, space, coh, local)
	}
	return m
}

// LocalRegion returns the accelerator-local data region allocated at
// construction (LD/LH variants), or nil.
func (m *Machine) LocalRegion() *memspace.Region {
	for _, r := range m.Space.Regions() {
		if r.Kind == memspace.KindAccelLocal {
			return r
		}
	}
	return nil
}

// ConnectMachines wires two machines' NICs with a duplex network path
// at the testbed's 25 GbE characteristics.
func ConnectMachines(a, b *Machine) *interconnect.Duplex {
	d := interconnect.NewDuplex(a.Name+"<->"+b.Name, NetBW, NetOneWay)
	rnic.Connect(a.NIC, b.NIC, d)
	return d
}

// DataKind returns where application data should live on this machine:
// accel-local for LD/LH variants, DRAM otherwise.
func (m *Machine) DataKind() memspace.Kind {
	if m.Accel != nil && m.Accel.HasLocalMemory() {
		return memspace.KindAccelLocal
	}
	return memspace.KindDRAM
}

// Zero is the machine's virtual time origin (a helper for tests).
const Zero = sim.Time(0)
