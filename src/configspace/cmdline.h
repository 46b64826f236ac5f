// Deployment-artifact codecs: kernel command line and sysctl.conf.
//
// The paper's three parameter phases surface to an operator as three
// artifacts: a Kconfig .config (see kconfig.h), the kernel command line for
// boot-time options, and /etc/sysctl.d entries for runtime options. These
// codecs render a Configuration's non-default boot/runtime values in those
// formats — what wfctl prints so a discovered configuration can actually be
// deployed.
#ifndef WAYFINDER_SRC_CONFIGSPACE_CMDLINE_H_
#define WAYFINDER_SRC_CONFIGSPACE_CMDLINE_H_

#include <string>

#include "src/configspace/config_space.h"

namespace wayfinder {

// Renders the boot-time parameters that differ from their defaults as a
// kernel command line, in space order. Conventions:
//   bool on         ->  name          (flag form)
//   bool off        ->  name=0        (explicit, so default-on flags render)
//   int / hex       ->  name=value    (hex keeps its 0x form)
//   string          ->  name=choice
std::string RenderCmdline(const Configuration& config);

// Renders the runtime parameters that differ from their defaults in
// sysctl.conf syntax ("key = value" lines), in space order.
std::string RenderSysctlConf(const Configuration& config);

}  // namespace wayfinder

#endif  // WAYFINDER_SRC_CONFIGSPACE_CMDLINE_H_
