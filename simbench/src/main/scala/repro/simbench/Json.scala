package repro.simbench

/** Minimal JSON writer for the result record (maps, sequences, strings,
  * numbers, booleans, null); keeps the benchmark free of extra dependencies.
  */
object Json {
  def apply(x: Any): String = {
    val sb = new StringBuilder
    write(x, sb)
    sb.toString
  }

  private def write(x: Any, sb: StringBuilder): Unit = x match {
    case null | None         => sb ++= "null"
    case Some(v)             => write(v, sb)
    case s: String           => str(s, sb)
    case b: Boolean          => sb ++= b.toString
    case d: Double           => sb ++= (if (d.isNaN || d.isInfinite) "null" else d.toString)
    case f: Float            => write(f.toDouble, sb)
    case i: Int              => sb ++= i.toString
    case l: Long             => sb ++= l.toString
    case m: collection.Map[_, _] =>
      sb += '{'
      var first = true
      m.foreach { case (k, v) =>
        if (!first) sb += ','; first = false
        str(k.toString, sb); sb += ':'; write(v, sb)
      }
      sb += '}'
    case xs: Iterable[_] =>
      sb += '['
      var first = true
      xs.foreach { v => if (!first) sb += ','; first = false; write(v, sb) }
      sb += ']'
    case a: Array[_]         => write(a.toSeq, sb)
    case other               => str(other.toString, sb)
  }

  private def str(s: String, sb: StringBuilder): Unit = {
    sb += '"'
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case '\r' => sb ++= "\\r"
      case '\t' => sb ++= "\\t"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    sb += '"'
  }
}
