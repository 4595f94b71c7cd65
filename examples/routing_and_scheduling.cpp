/**
 * @file
 * Example: compiling a logical circuit end to end.
 *
 * Takes a 3-qubit logical GHZ-plus-phase circuit, maps it onto physical
 * qubits of IBMQ Boeblingen with the SWAP-insertion router, schedules the
 * routed circuit with all four schedulers (Serial, Parallel, Greedy,
 * Xtalk), and compares modeled success probability, duration, and the
 * barriered executable that XtalkSched emits.
 *
 * Build: cmake --build build && ./build/examples/routing_and_scheduling
 */
#include <iomanip>
#include <iostream>

#include "device/ibmq_devices.h"
#include "experiments/experiments.h"
#include "scheduler/analysis.h"
#include "scheduler/greedy_scheduler.h"
#include "scheduler/scheduler.h"
#include "scheduler/xtalk_scheduler.h"
#include "transpile/routing.h"

using namespace xtalk;

int
main()
{
    const Device device = MakeBoeblingen();
    const auto characterization = CharacterizeDevice(
        device, BenchRbConfig(9), CharacterizationPolicy::kOneHopBinPacked);

    // A logical circuit with a long-range CNOT (qubits 0 and 2 will be
    // placed far apart) so the router must insert SWAPs.
    Circuit logical(3);
    logical.H(0).CX(0, 1).T(1).CX(0, 2).H(2);
    logical.Measure(0, 0).Measure(1, 1).Measure(2, 2);
    std::cout << "logical circuit:\n" << logical.ToString() << "\n";

    // Place the qubits on a region whose couplers include a
    // high-crosstalk pair; the router inserts meet-in-the-middle SWAPs.
    const std::vector<QubitId> layout{0, 7, 12};
    const RoutingResult routed = RouteCircuit(device, logical, layout);
    std::cout << "routed onto " << device.name() << " (layout 0->"
              << layout[0] << ", 1->" << layout[1] << ", 2->" << layout[2]
              << "):\n"
              << routed.circuit.ToString() << "\n";
    std::cout << "final layout:";
    for (size_t l = 0; l < routed.final_layout.size(); ++l) {
        std::cout << " " << l << "->" << routed.final_layout[l];
    }
    std::cout << "\n\n";

    SerialScheduler serial(device);
    ParallelScheduler parallel(device);
    GreedyXtalkScheduler greedy(device, characterization);
    XtalkScheduler xtalk(device, characterization);

    std::cout << std::fixed << std::setprecision(4);
    std::cout << "scheduler     duration(ns)  modeled success  overlaps\n";
    for (Scheduler* scheduler : std::initializer_list<Scheduler*>{
             &serial, &parallel, &greedy, &xtalk}) {
        const ScheduledCircuit schedule =
            scheduler->Schedule(routed.circuit);
        const auto estimate =
            EstimateScheduleError(schedule, device, characterization);
        std::cout << std::left << std::setw(14) << scheduler->name()
                  << std::setw(14) << schedule.TotalDuration()
                  << std::setw(17) << estimate.success_probability
                  << estimate.crosstalk_overlaps << "\n";
    }

    std::cout << "\nXtalkSched executable with ordering barriers:\n";
    std::cout << xtalk.ScheduleWithBarriers(routed.circuit).ToString();
    return 0;
}
