"""Convolutive-superposition spectrum sharing: an OFDM primary link relayed
by a full-duplex secondary transmitter that embeds its own symbols in the
relay filter taps and in the primary's unused subcarriers."""

__version__ = "0.1.0"

from .spectral import (SpectralContext, VcLayout, InconsistentResponseError,
                       build_spectral_context, build_vc_layout,
                       filter_frequency_response, min_norm_filter)
from .channel import (LINKS, NetworkScenario, LinkSpec, ChannelRealization,
                      draw_channels, link_output, toeplitz_pair, zmcscg)
from .precoding import (PrecoderSet, PrecoderRankError, realize_precoders,
                        srx_noise_floor, uc_power_coefficient, uniform_split,
                        waterfilling_profile)
from .transceiver import (FrameConfig, FrameSimulator, FrameTrace, NoiseBlocks,
                          draw_noise_blocks, pu_frequency_model, pu_transmit,
                          required_cp_length, srx_frequency_model,
                          stx_power_mc, stx_process, zero_noise)
from .capacity import (CapacityReport, baseline_nocr, baseline_nocr_quad,
                       baseline_ocr, bessel_k1, c_pu_direct, c_pu_lower_quad,
                       c_su_lower_csit, c_su_lower_nocsit_quad,
                       check_pu_monotonicity, kappa, outage_closed_form,
                       outage_mc, psi, pu_outage_probability)
from .harness import (SCHEMES, ScenarioSpec, SweepConfig, build_scenario,
                      emit_csv, evaluate_scheme, reference_link_specs, run_sweep)
from .validation import CheckResult, ValidationReport, validate_suite
