# CTest driver for the Chrome-trace golden check: ganacc_report's
# D-update event trace for the MNIST GAN must byte-compare against the
# committed golden. Timestamps are simulated cycles, so the file is
# fully deterministic; any drift in the obs::writeChromeTraceJson
# emitter (field order, escaping, footer) or in the event-sim schedule
# itself fails here. Variables: TOOL (ganacc_report binary), GOLDEN
# (committed trace), OUT (scratch output path).

execute_process(
    COMMAND ${TOOL} --model mnist-gan --trace ${OUT}
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ganacc_report exited with status ${rc}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR
        "Chrome trace diverges from ${GOLDEN}; inspect ${OUT} and, if "
        "the change is intended, regenerate the golden with: "
        "ganacc_report --model mnist-gan --trace <golden>")
endif()
