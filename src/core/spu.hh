/**
 * @file
 * The Special Function Unit (Section IV-A2).
 *
 * The SPU evaluates transcendental functions "by computing the
 * quadratic Taylor polynomial, according to the derivative values
 * found in the Lookup Table". The model builds, per function, a table
 * of (f, f', f'') samples over a canonical argument range; evaluation
 * range-reduces the argument into that range (exactly the tricks real
 * hardware uses: exponent splitting for log/rsqrt, saturation for
 * tanh/sigmoid, periodic reduction for sin), picks the nearest table
 * segment, and sums the three Taylor terms.
 *
 * The tables depend only on the entry count, so every Spu of one size
 * shares one immutable table set, built once per process on first use.
 */

#ifndef DTU_CORE_SPU_HH
#define DTU_CORE_SPU_HH

#include <array>
#include <memory>
#include <vector>

#include "isa/opcode.hh"
#include "tensor/dtype.hh"

namespace dtu
{

/** A LUT-plus-quadratic-Taylor special function unit. */
class Spu
{
  public:
    /**
     * @param table_entries samples per lookup table; larger tables
     *        trade SRAM for accuracy (hardware uses a few hundred).
     */
    explicit Spu(unsigned table_entries = 512);

    /** Evaluate one value through the hardware path. */
    double evaluate(SpuFunc f, double x) const;

    /** Evaluate with rounding to @p t after every hardware step. */
    double evaluate(SpuFunc f, double x, DType t) const;

    /** libm reference for accuracy measurement. */
    static double reference(SpuFunc f, double x);

    /**
     * Worst relative error of the hardware path against the reference
     * over @p samples points in [lo, hi]. Used by accuracy tests to
     * show every supported function is within inference tolerance.
     */
    double maxRelativeError(SpuFunc f, double lo, double hi,
                            unsigned samples) const;

    /** Table entries per function. */
    unsigned tableEntries() const { return entries_; }

    /**
     * Throughput of the SPU in results per cycle for a 512-bit vector
     * of @p t: DTU 2.0's enhanced SPU ("the throughput of the SFU is
     * improved", Table II) retires a full vector per cycle; DTU 1.0
     * needed 4 cycles per vector.
     */
    static unsigned resultsPerCycle(DType t, bool dtu2 = true);

  private:
    struct TableEntry
    {
        double f = 0.0;
        double d1 = 0.0;
        double d2 = 0.0;
    };

    struct Table
    {
        double lo = 0.0;
        double hi = 1.0;
        std::vector<TableEntry> entries;
    };

    using TableSet = std::array<Table, numSpuFuncs>;

    /** Tabulate every function at @p entries samples. */
    static TableSet buildTables(unsigned entries);

    /**
     * The process-wide table set for @p entries samples, built on the
     * first request (thread-safe) and shared by every later caller.
     */
    static std::shared_ptr<const TableSet> sharedTables(unsigned entries);

    /** Core-range evaluation via the quadratic Taylor polynomial. */
    double taylor(const Table &table, double x) const;

    static double rawFunc(SpuFunc f, double x);
    static double rawDeriv1(SpuFunc f, double x);
    static double rawDeriv2(SpuFunc f, double x);

    unsigned entries_;
    std::shared_ptr<const TableSet> tables_;
};

} // namespace dtu

#endif // DTU_CORE_SPU_HH
