/**
 * @file
 * Section III-C3 reproduction: the ineffectual (zero-operand)
 * multiplication census. The paper: "These ineffectual operations
 * account for about 64% and 75% of total multiplications in G→/Gw
 * and Dw respectively."
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "gan/models.hh"
#include "nn/zero_insert.hh"
#include "sim/phase.hh"
#include "util/table.hh"

int
main()
{
    using namespace ganacc;
    bench::banner("Section III-C3 — ineffectual multiplication census",
                  "~64% of G-phase and ~75% of Dw multiplications are "
                  "zero-operand");

    for (const auto &m : gan::allModels()) {
        std::cout << "\n" << m.name << "\n";
        util::Table t({"phase family", "dense GMACs",
                       "effective GMACs", "ineffectual %"});
        for (sim::PhaseFamily f : sim::allPhaseFamilies()) {
            auto jobs = sim::familyJobs(m, f);
            double dense = double(sim::totalDenseMacs(jobs));
            double eff = double(sim::totalEffectiveMacs(jobs));
            t.addRow(sim::phaseFamilyName(f), dense / 1e9, eff / 1e9,
                     100.0 * (1.0 - eff / dense));
        }
        t.print(std::cout);
    }

    std::cout << "\nZero fraction of the stuffed maps themselves "
                 "(stride-2 insertion):\n";
    util::Table z({"dense map", "stuffed map", "zeros %"});
    for (int d : {4, 8, 16, 32}) {
        int s = (d - 1) * 2 + 1;
        z.addRow(std::to_string(d) + "x" + std::to_string(d),
                 std::to_string(s) + "x" + std::to_string(s),
                 100.0 * nn::zeroInsertZeroFraction(d, d, 2));
    }
    z.print(std::cout);
    return 0;
}
