#include "core/register_file.hh"

#include <algorithm>

namespace dtu
{

RegisterFile::RegisterFile(RegFileGeometry geometry)
    : geometry_(geometry),
      scalars_(geometry.scalarRegs, 0.0),
      vectors_(static_cast<std::size_t>(geometry.vectorRegs) *
                   geometry.maxLanes,
               0.0),
      matrices_(static_cast<std::size_t>(geometry.matrixRegs) *
                    geometry.matrixRows * geometry.maxLanes,
                0.0)
{}

void
RegisterFile::checkScalar(int i) const
{
    panicIf(i < 0 || static_cast<unsigned>(i) >= geometry_.scalarRegs,
            "scalar register s", i, " out of range");
}

void
RegisterFile::checkVector(int i) const
{
    panicIf(i < 0 || static_cast<unsigned>(i) >= geometry_.vectorRegs,
            "vector register v", i, " out of range");
}

void
RegisterFile::checkMatrix(int i) const
{
    panicIf(i < 0 || static_cast<unsigned>(i) >= geometry_.matrixRegs,
            "matrix register m", i, " out of range");
}

void
RegisterFile::checkAcc(int i) const
{
    panicIf(i < 0 || static_cast<unsigned>(i) >= geometry_.accRegs,
            "accumulation register acc", i, " out of range");
}

std::size_t
RegisterFile::laneBase(int reg) const
{
    return static_cast<std::size_t>(reg) * geometry_.maxLanes;
}

std::size_t
RegisterFile::matrixAt(int reg, unsigned row) const
{
    return (static_cast<std::size_t>(reg) * geometry_.matrixRows + row) *
           geometry_.maxLanes;
}

double
RegisterFile::sreg(int i) const
{
    checkScalar(i);
    return scalars_[static_cast<std::size_t>(i)];
}

void
RegisterFile::setSreg(int i, double v)
{
    checkScalar(i);
    scalars_[static_cast<std::size_t>(i)] = v;
}

double
RegisterFile::vlane(int reg, unsigned lane) const
{
    checkVector(reg);
    panicIf(lane >= geometry_.maxLanes, "vector lane out of range");
    return vectors_[laneBase(reg) + lane];
}

void
RegisterFile::setVlane(int reg, unsigned lane, double v)
{
    checkVector(reg);
    panicIf(lane >= geometry_.maxLanes, "vector lane out of range");
    vectors_[laneBase(reg) + lane] = v;
}

std::vector<double>
RegisterFile::vread(int reg, unsigned lanes) const
{
    checkVector(reg);
    panicIf(lanes > geometry_.maxLanes, "too many lanes requested");
    auto first = vectors_.begin() +
                 static_cast<std::ptrdiff_t>(laneBase(reg));
    return std::vector<double>(first, first + lanes);
}

void
RegisterFile::vwrite(int reg, const std::vector<double> &lanes)
{
    checkVector(reg);
    panicIf(lanes.size() > geometry_.maxLanes, "too many lanes written");
    std::copy(lanes.begin(), lanes.end(),
              vectors_.begin() + static_cast<std::ptrdiff_t>(laneBase(reg)));
}

double
RegisterFile::melem(int reg, unsigned row, unsigned lane) const
{
    checkMatrix(reg);
    panicIf(row >= geometry_.matrixRows || lane >= geometry_.maxLanes,
            "matrix element out of range");
    return matrices_[matrixAt(reg, row) + lane];
}

void
RegisterFile::setMelem(int reg, unsigned row, unsigned lane, double v)
{
    checkMatrix(reg);
    panicIf(row >= geometry_.matrixRows || lane >= geometry_.maxLanes,
            "matrix element out of range");
    matrices_[matrixAt(reg, row) + lane] = v;
}

void
RegisterFile::mloadRow(int reg, unsigned row,
                       const std::vector<double> &lanes)
{
    checkMatrix(reg);
    panicIf(row >= geometry_.matrixRows, "matrix row out of range");
    panicIf(lanes.size() > geometry_.maxLanes, "too many lanes in row");
    std::copy(lanes.begin(), lanes.end(),
              matrices_.begin() +
                  static_cast<std::ptrdiff_t>(matrixAt(reg, row)));
}

double
RegisterFile::aclane(int reg, unsigned lane) const
{
    checkAcc(reg);
    panicIf(lane >= geometry_.maxLanes, "acc lane out of range");
    return accs_.empty() ? 0.0 : accs_[laneBase(reg) + lane];
}

void
RegisterFile::setAclane(int reg, unsigned lane, double v)
{
    checkAcc(reg);
    panicIf(lane >= geometry_.maxLanes, "acc lane out of range");
    if (accs_.empty())
        accs_.assign(static_cast<std::size_t>(geometry_.accRegs) *
                         geometry_.maxLanes,
                     0.0);
    accs_[laneBase(reg) + lane] = v;
}

void
RegisterFile::accZero(int reg)
{
    checkAcc(reg);
    if (accs_.empty())
        return; // untouched registers already read 0
    auto first = accs_.begin() + static_cast<std::ptrdiff_t>(laneBase(reg));
    std::fill(first, first + geometry_.maxLanes, 0.0);
}

unsigned
RegisterFile::bankConflictStalls(const Packet &packet) const
{
    std::vector<unsigned> reads_per_bank(geometry_.vectorBanks, 0);
    for (const auto &inst : packet.slots) {
        // Collect vector-register source operands per opcode.
        switch (inst.op) {
          case Opcode::VAdd:
          case Opcode::VSub:
          case Opcode::VMul:
          case Opcode::VMax:
          case Opcode::VMin:
            ++reads_per_bank[vectorBank(inst.a)];
            ++reads_per_bank[vectorBank(inst.b)];
            break;
          case Opcode::VMac:
            ++reads_per_bank[vectorBank(inst.a)];
            ++reads_per_bank[vectorBank(inst.b)];
            ++reads_per_bank[vectorBank(inst.dst)];
            break;
          case Opcode::VRelu:
          case Opcode::VRedSum:
          case Opcode::SpuApply:
          case Opcode::Vmm:
          case Opcode::MRelMatrix:
          case Opcode::MPermMatrix:
            ++reads_per_bank[vectorBank(inst.a)];
            break;
          case Opcode::VStore:
            ++reads_per_bank[vectorBank(inst.b)];
            break;
          case Opcode::MLoadRow:
            ++reads_per_bank[vectorBank(inst.a)];
            break;
          default:
            break;
        }
    }
    unsigned stalls = 0;
    for (auto reads : reads_per_bank) {
        if (reads > 1)
            stalls += reads - 1;
    }
    return stalls;
}

} // namespace dtu
