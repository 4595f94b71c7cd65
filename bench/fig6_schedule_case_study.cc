/**
 * @file
 * Figure 6 reproduction: the schedule case study. The paper walks the
 * SWAP path between qubits 0 and 13 on Poughkeepsie; on our synthetic
 * crosstalk map the equivalent conflicted route is 15 -> 12 (it drives
 * the high-crosstalk pair CX10,15 | CX11,12 and includes low-coherence
 * qubit 10). The binary prints the three schedules and highlights the
 * two decisions the paper calls out:
 *   1. XtalkSched serializes the conflicting SWAPs (ParSched overlaps
 *      them; SerialSched serializes everything);
 *   2. XtalkSched orders the SWAP touching low-coherence qubit 10 last,
 *      minimizing that qubit's lifetime.
 * The paper's original 0 -> 13 route is also printed for reference.
 */
#include <iostream>

#include "bench_util.h"
#include "device/ibmq_devices.h"
#include "scheduler/analysis.h"
#include "scheduler/scheduler.h"
#include "scheduler/xtalk_scheduler.h"

using namespace xtalk;
using namespace xtalk::bench;

int
main()
{
    const Device device = MakePoughkeepsie();
    const auto characterization = CharacterizeDevice(
        device, ScaledRbConfig(66), CharacterizationPolicy::kOneHopBinPacked,
        6);

    Banner("Paper's route 0 -> 13 (for reference)");
    const SwapBenchmark paper_route = BuildSwapBenchmark(device, 0, 13);
    std::cout << "path:";
    for (QubitId q : paper_route.path) {
        std::cout << " " << q;
    }
    std::cout << "\nmeeting CNOT: (" << paper_route.bell_left << ", "
              << paper_route.bell_right << ")\n";
    std::cout << "conflicted on this synthetic crosstalk map: "
              << (HasCrosstalkConflict(device, paper_route, characterization)
                      ? "yes"
                      : "no (our injected pairs differ from the real "
                        "device's; see DESIGN.md)")
              << "\n";

    Banner("Conflicted case study route 15 -> 12");
    const SwapBenchmark bench = BuildSwapBenchmark(device, 15, 12);
    Circuit circuit = bench.circuit;
    circuit.Measure(bench.bell_left, 0).Measure(bench.bell_right, 1);
    std::cout << "qubit 10 coherence: " << device.CoherenceTimeNs(10) / 1000.0
              << " us (device worst; avg ~"
              << [&] {
                     double total = 0.0;
                     for (QubitId q = 0; q < device.num_qubits(); ++q) {
                         total += device.CoherenceTimeNs(q) / 1000.0;
                     }
                     return total / device.num_qubits();
                 }()
              << " us)\n";

    SerialScheduler serial(device);
    ParallelScheduler parallel(device);
    XtalkScheduler xtalk(device, characterization);

    for (Scheduler* scheduler :
         std::initializer_list<Scheduler*>{&serial, &parallel, &xtalk}) {
        Banner(scheduler->name());
        const ScheduledCircuit schedule = scheduler->Schedule(circuit);
        std::cout << schedule.ToString();
        const auto estimate =
            EstimateScheduleError(schedule, device, characterization);
        std::cout << "duration " << schedule.TotalDuration()
                  << " ns, modeled success "
                  << estimate.success_probability
                  << ", high-crosstalk overlaps "
                  << estimate.crosstalk_overlaps << ", qubit-10 lifetime "
                  << schedule.QubitLifetime(10) << " ns\n";
    }

    Banner("Barrier post-processing (XtalkSched output as a circuit)");
    const Circuit barriered = xtalk.ScheduleWithBarriers(circuit);
    std::cout << barriered.ToString();
    return 0;
}
