// Calibrated hardware specifications.
//
// Every constant here is an operating point taken from the paper
// ("More is Different", ATC'24) — its Tables 1/2/4/6/7 and Figures 6-14 — or
// a public datasheet value. Comments name the source. The rest of the
// simulator interpolates between these anchors; nothing else in the codebase
// hard-codes silicon numbers.

#ifndef SRC_HW_SPECS_H_
#define SRC_HW_SPECS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/units.h"

namespace soccluster {

// The six Qualcomm Snapdragon generations of the longitudinal study
// (Table 6), newest last.
enum class SocGeneration {
  kSd835 = 0,   // 2017, Xiaomi 6
  kSd845 = 1,   // 2018, Xiaomi 8
  kSd855 = 2,   // 2019, Meizu 16T
  kSd865 = 3,   // 2020, Meizu 17 / the SoC Cluster silicon
  kSd888 = 4,   // 2021, Xiaomi 11 Pro
  kSd8Gen1Plus = 5,  // 2022, Xiaomi 12S
};

const char* SocGenerationName(SocGeneration gen);
int SocGenerationYear(SocGeneration gen);
std::vector<SocGeneration> AllSocGenerations();

// One mobile SoC's calibrated capabilities.
struct SocSpec {
  std::string name;
  SocGeneration generation = SocGeneration::kSd865;
  int cpu_cores = 8;        // Kryo 585: 1 prime + 3 gold + 4 silver.
  int memory_gb = 12;       // Table 1.
  int storage_gb = 256;     // Table 1.
  DataRate nic = DataRate::Gbps(1.0);  // Integrated 1GE (Table 1).

  // Performance factors relative to the SD865 (=1.0). Calibrated so the
  // generation-over-generation ratios match Figure 14:
  //   - transcode CPU: 865 is 1.42x/1.82x/2.3x over 855/845/835; 8+Gen1 is
  //     1.8x over 865.
  //   - DL CPU latency improves 4.8x from 2017 to 2022; GPU 3.2x; DSP 8.4x
  //     from the 845 to the 8+Gen1.
  //   - hardware codec: 865 is 3.8x (V4) / 3.24x (V5) over the 835.
  double cpu_transcode_factor = 1.0;
  double cpu_dl_factor = 1.0;
  double gpu_dl_factor = 1.0;
  double dsp_dl_factor = 1.0;
  double codec_factor = 1.0;

  // Power states, wall-side (incl. board regulators). Calibrated so that a
  // fully loaded cluster transcoding V5 draws ~589 W (Table 4) and the
  // Figure 7 single-stream operating points hold.
  Power power_off = Power::Watts(0.10);    // PCB slot leakage.
  Power power_idle = Power::Watts(1.30);   // Android idle, screenless.
  Power cpu_wake = Power::Watts(0.60);     // First-core wakeup adder.
  Power cpu_dynamic_full = Power::Watts(7.20);   // All 8 cores saturated.
  Power gpu_active_full = Power::Watts(3.08);    // Adreno at full tilt
                                                 // (18 samples/J on R50,
                                                 // Fig. 11b).
  Power dsp_active_full = Power::Watts(1.30);    // Hexagon <=500 MHz (§5.2).
  // HW codec ASIC power per session: base + watts per (pixel/s) processed.
  // Calibrated against Fig. 8b: hardware transcoding is ~2.5x more
  // streams/W than SoC CPUs on low-complexity videos and 4.7-5.5x on
  // high-resolution/high-entropy ones.
  Power codec_session_base = Power::Watts(0.05);
  double codec_watts_per_pixel_per_sec = 3.7e-9;
  // CPU share of the delegation daemon per hardware-codec session (§4.4
  // notes codec sessions also consume some CPU).
  double codec_cpu_share_per_session = 0.012;

  // Maximum concurrent hardware-codec sessions (MediaCodec limit).
  int max_codec_sessions = 16;
};

// Spec for one generation; kSd865 is the SoC Cluster silicon.
SocSpec SocSpecFor(SocGeneration gen);
// Convenience: the cluster's SD865.
SocSpec Snapdragon865Spec();

// The SoC Cluster chassis (Table 1, §2.2).
struct ClusterChassisSpec {
  int num_socs = 60;
  int num_pcbs = 12;
  int socs_per_pcb = 5;
  DataRate pcb_uplink = DataRate::Gbps(1.0);   // PCB <-> ESB.
  DataRate esb_uplink = DataRate::Gbps(20.0);  // Dual SFP+ (2x10GE).
  Duration soc_rtt = Duration::MicrosF(440.0);  // §2.3: ~0.44 ms inter-SoC.
  // Measured-goodput ceilings (§2.3: 903 Mbps TCP / 895 Mbps UDP on a 1GE
  // link), expressed as protocol efficiency over the physical rate.
  double tcp_efficiency = 0.903;
  double udp_efficiency = 0.895;

  Power fans = Power::Watts(35.0);  // Eight-fan module (mean draw).
  Power esb = Power::Watts(25.0);   // Ethernet switch board.
  Power bmc = Power::Watts(8.0);    // Baseboard management controller.
  Power psu_max = Power::Watts(700.0);  // §2.2: ~700 W redundant supplies.

  // Power-state transition latencies used by the autoscaler.
  Duration soc_boot = Duration::Seconds(25);       // Cold boot Android.
  Duration soc_wake = Duration::MillisF(350.0);    // Idle -> active.
  Duration soc_shutdown = Duration::Seconds(3);
};

ClusterChassisSpec DefaultChassisSpec();

// The traditional edge server (Table 1): dual Intel Xeon Gold 5218R
// (40 physical cores / 80 threads at 4.0 GHz turbo) partitioned into ten
// 8-core Docker containers (§3 Setups).
struct EdgeServerSpec {
  std::string name = "edge-xeon-a40";
  int physical_cores = 40;
  int hw_threads = 80;
  int containers = 10;
  int cores_per_container = 8;
  int memory_gb = 768;
  int num_gpus = 8;  // NVIDIA A40.

  // Host power (CPU+RAM+fans+board), wall-side. Calibrated so (a) live V5
  // transcoding at full CPU load reads ~633 W (Table 4, W/O GPU column) and
  // (b) the Figure 7 single-stream operating point (0.268 streams/W on V4)
  // and the Figure 6a full-load ratios (SoC CPU 2.58-3.21x) hold.
  Power host_idle = Power::Watts(255.0);         // Dual-socket idle.
  Power cpu_dynamic_full = Power::Watts(376.0);  // All containers saturated.
  // Wakeup adder when a container goes from idle to running anything
  // (uncore/turbo activation).
  Power container_wake = Power::Watts(1.2);
  // Marginal draw per container during saturated DL inference (turbostat
  // package-power scope): container_wake + dynamic share.
  Power ContainerDynamicShare() const {
    return cpu_dynamic_full / static_cast<double>(containers);
  }
};

EdgeServerSpec DefaultEdgeServerSpec();

// Discrete NVIDIA GPUs used in the comparison.
enum class GpuModelKind {
  kA40,   // In the edge server (8x).
  kA100,  // Google Cloud, DL-serving comparison only (§3).
};

struct DiscreteGpuSpec {
  std::string name;
  GpuModelKind kind = GpuModelKind::kA40;
  Power idle = Power::Watts(40.0);
  Power max_power = Power::Watts(300.0);
  // NVENC/NVDEC transcode engine present (the A100 has no NVENC — §3
  // excludes it from video experiments).
  bool has_nvenc = true;
  int memory_gb = 48;
};

DiscreteGpuSpec GpuSpecFor(GpuModelKind kind);

}  // namespace soccluster

#endif  // SRC_HW_SPECS_H_
