/**
 * @file
 * §6.2 / Figure 13 — router tile floorplans and the NoX area
 * overhead (paper: +28.2 um horizontal for decode+masking, +17.2%
 * total tile area).
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "power/area_model.hpp"

int
main(int argc, char **argv)
{
    using namespace nox;

    Config config;
    config.parseArgs(argc, argv);
    bench::printHeader("Figure 13 / §6.2: router floorplan areas",
                       config);
    config.requireAllUsed("bench_table3_area");

    const Technology tech = Technology::tsmc65();
    const PhysicalParams phys;
    const AreaModel am(tech, phys);

    for (RouterArch arch :
         {RouterArch::NonSpeculative, RouterArch::Nox}) {
        const AreaBreakdown b = am.breakdown(arch);
        std::cout << "--- "
                  << (arch == RouterArch::Nox ? "NoX"
                                              : "conventional")
                  << " router tile ---\n";
        Table table({"block", "width [um]", "area [um^2]"});
        for (const auto &blk : b.blocks) {
            table.addRow({blk.name, Table::num(blk.widthUm, 1),
                          Table::num(blk.areaUm2, 0)});
        }
        table.addRow({"TOTAL (" + Table::num(b.widthUm, 1) + " x " +
                          Table::num(b.heightUm, 1) + ")",
                      Table::num(b.widthUm, 1),
                      Table::num(b.areaUm2(), 0)});
        table.print(std::cout);
        std::cout << '\n';
    }

    std::cout << "NoX decode+masking column width: "
              << Table::num(am.decodeMaskWidthUm(), 1)
              << " um  [paper: 28.2 um]\n";
    std::cout << "NoX tile area overhead: "
              << Table::num(am.noxOverheadFraction() * 100.0, 1)
              << "%  [paper: 17.2%]\n";

    return 0;
}
