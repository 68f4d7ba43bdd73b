/**
 * @file
 * Compute-core register files.
 *
 * Each DTU 2.0 core carries (Section IV-A1):
 *  - a scalar register file,
 *  - 32 vector registers of 512 bits,
 *  - 2 matrix registers of 32 x 512 bits,
 *  - 1024 accumulation registers of 512 bits.
 *
 * Vector registers are physically banked; reading two operands from
 * the same bank in one VLIW packet stalls the pipeline for a cycle.
 * The software stack's register allocator avoids such conflicts
 * (Section V-B); the model exposes conflict detection so both the
 * penalty and the allocator's fix can be evaluated.
 *
 * Each register kind is one flat array. The accumulation array (512 KiB
 * on DTU 2.0) is only touched by functional VMM kernels, so it is
 * allocated on the first write; until then every lane reads 0.
 */

#ifndef DTU_CORE_REGISTER_FILE_HH
#define DTU_CORE_REGISTER_FILE_HH

#include <array>
#include <vector>

#include "isa/instruction.hh"
#include "sim/logging.hh"

namespace dtu
{

/** Architectural register-file dimensions. */
struct RegFileGeometry
{
    unsigned scalarRegs = 64;
    unsigned vectorRegs = 32;
    unsigned vectorBanks = 4;
    unsigned matrixRegs = 2;
    unsigned matrixRows = 32;
    unsigned accRegs = 1024;
    /** Physical lane count of a 512-bit register at 8-bit grain. */
    unsigned maxLanes = 64;
};

/** Lanes a 512-bit register holds for a given element type. */
constexpr unsigned
vectorLanes(DType t)
{
    return static_cast<unsigned>(64 / dtypeBytes(t));
}

/** The register state of one compute core. */
class RegisterFile
{
  public:
    explicit RegisterFile(RegFileGeometry geometry = {});

    const RegFileGeometry &geometry() const { return geometry_; }

    //
    // Scalar registers
    //
    double sreg(int i) const;
    void setSreg(int i, double v);

    //
    // Vector registers (lane-addressed)
    //
    double vlane(int reg, unsigned lane) const;
    void setVlane(int reg, unsigned lane, double v);
    /** Whole-register access for the engines. */
    std::vector<double> vread(int reg, unsigned lanes) const;
    void vwrite(int reg, const std::vector<double> &lanes);

    //
    // Matrix registers
    //
    double melem(int reg, unsigned row, unsigned lane) const;
    void setMelem(int reg, unsigned row, unsigned lane, double v);
    /** Load one row from a lane vector. */
    void mloadRow(int reg, unsigned row, const std::vector<double> &lanes);

    //
    // Accumulation registers
    //
    double aclane(int reg, unsigned lane) const;
    void setAclane(int reg, unsigned lane, double v);
    void accZero(int reg);

    /** Host bytes backing the accumulation registers (0 until written). */
    std::size_t accStorageBytes() const
    {
        return accs_.size() * sizeof(double);
    }

    /** The physical bank a vector register lives in. */
    unsigned vectorBank(int reg) const
    {
        return static_cast<unsigned>(reg) % geometry_.vectorBanks;
    }

    /**
     * Extra stall cycles a VLIW packet pays to read its vector
     * operands: each bank delivers one operand per cycle, so k reads
     * from one bank cost k-1 stalls.
     */
    unsigned bankConflictStalls(const Packet &packet) const;

  private:
    void checkScalar(int i) const;
    void checkVector(int i) const;
    void checkMatrix(int i) const;
    void checkAcc(int i) const;

    /** Flat offset of lane 0 of vector or accumulation register @p reg. */
    std::size_t laneBase(int reg) const;
    /** Flat offset of lane 0 of row @p row of matrix register @p reg. */
    std::size_t matrixAt(int reg, unsigned row) const;

    RegFileGeometry geometry_;
    std::vector<double> scalars_;
    std::vector<double> vectors_;  // [reg][lane]
    std::vector<double> matrices_; // [reg][row][lane]
    std::vector<double> accs_;     // [reg][lane]; empty until written
};

} // namespace dtu

#endif // DTU_CORE_REGISTER_FILE_HH
